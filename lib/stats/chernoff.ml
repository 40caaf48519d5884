let log_fact =
  (* Memoized log-factorial. *)
  let cache = ref (Array.make 1 0.) in
  fun v ->
    let cur = Array.length !cache in
    if v >= cur then begin
      let grown = Array.make (Int.max (v + 1) (2 * cur)) 0. in
      Array.blit !cache 0 grown 0 cur;
      for i = cur to Array.length grown - 1 do
        grown.(i) <- grown.(i - 1) +. log (float_of_int i)
      done;
      cache := grown
    end;
    !cache.(v)

let binomial_pmf ~trials ~p i =
  if i < 0 || i > trials then 0.
  else if Fl.(p <= 0.) then if i = 0 then 1. else 0.
  else if Fl.(p >= 1.) then if i = trials then 1. else 0.
  else begin
    let logc = log_fact trials -. log_fact i -. log_fact (trials - i) in
    exp (logc +. (float_of_int i *. log p) +. (float_of_int (trials - i) *. log (1. -. p)))
  end

let binomial_tail_below ~trials ~p ~threshold =
  let rec go i acc =
    if i >= threshold then acc else go (i + 1) (acc +. binomial_pmf ~trials ~p i)
  in
  let tail = go 0 0. in
  if Fl.(1. <= tail) then 1. else tail

let coverage_failure ~honest ~segments ~rho =
  if segments <= 0 then 0.
  else begin
    let p = 1. /. float_of_int segments in
    let per_segment = binomial_tail_below ~trials:honest ~p ~threshold:rho in
    let bound = float_of_int segments *. per_segment in
    if Fl.(1. <= bound) then 1. else bound
  end
