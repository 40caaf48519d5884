type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

let percentile sorted q =
  let m = Array.length sorted in
  if m = 0 then invalid_arg "Summary.percentile: empty";
  if m = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (m - 1) in
    let lo = int_of_float (floor pos) in
    let hi = Int.min (m - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let of_floats values =
  if List.is_empty values then invalid_arg "Summary.of_floats: empty";
  let arr = Array.of_list values in
  Array.sort Float.compare arr;
  let count = Array.length arr in
  let total = Array.fold_left ( +. ) 0. arr in
  let mean = total /. float_of_int count in
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0. arr
    /. float_of_int count
  in
  {
    count;
    mean;
    stddev = sqrt var;
    min = arr.(0);
    max = arr.(count - 1);
    median = percentile arr 0.5;
    p90 = percentile arr 0.9;
  }

let of_ints values = of_floats (List.map float_of_int values)
