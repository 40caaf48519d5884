module Bitarray = Dr_source.Bitarray
module Fault = Dr_adversary.Fault

type fault_model = Crash | Byzantine

type instance = {
  k : int;
  x : Bitarray.t;
  fault : Fault.t;
  model : fault_model;
  b : int;
  seed : int64;
}

let ceil_log2 v =
  let rec go acc p = if p >= v then acc else go (acc + 1) (p * 2) in
  go 0 1

let make ?(seed = 1L) ?b ?(model = Crash) ~k ~x fault =
  if k <= 0 then invalid_arg "Problem.make: k must be positive";
  if fault.Fault.k <> k then invalid_arg "Problem.make: fault partition sized for a different k";
  let n = Bitarray.length x in
  if n <= 0 then invalid_arg "Problem.make: empty input array";
  let b = match b with Some b -> b | None -> 64 * max 1 (ceil_log2 (n + k)) in
  if b < 1 then invalid_arg "Problem.make: message bound must be positive";
  { k; x; fault; model; b; seed }

let random_instance ?(seed = 1L) ?b ?(model = Crash) ~k ~n ~t () =
  let prng = Dr_engine.Prng.create seed in
  let x = Bitarray.random prng n in
  let fault = Fault.choose ~k (Fault.Spread t) in
  make ~seed ?b ~model ~k ~x fault

let n inst = Bitarray.length inst.x
let t inst = inst.fault.Fault.t_count
let beta inst = Fault.beta inst.fault
let gamma inst = Fault.gamma inst.fault
let honest inst i = Fault.is_honest inst.fault i

type report = {
  protocol : string;
  ok : bool;
  wrong : int list;
  q_max : int;
  q_mean : float;
  q_total : int;
  msgs : int;
  bits_sent : int;
  max_msg_bits : int;
  time : float;
  status : Dr_engine.Sim.status;
}

let pp_status ppf = function
  | Dr_engine.Sim.Completed -> Format.pp_print_string ppf "completed"
  | Dr_engine.Sim.Deadlock blocked ->
    Format.fprintf ppf "deadlock[%s]" (String.concat "," (List.map string_of_int blocked))
  | Dr_engine.Sim.Event_limit_reached -> Format.pp_print_string ppf "event-limit"

let pp_report ppf r =
  Format.fprintf ppf "%-16s %s Q=%d (mean %.1f) T=%.1f M=%d bits=%d status=%a" r.protocol
    (if r.ok then "OK " else "FAIL")
    r.q_max r.q_mean r.time r.msgs r.bits_sent pp_status r.status;
  if not r.ok && not (List.is_empty r.wrong) then
    Format.fprintf ppf " wrong=[%s]" (String.concat "," (List.map string_of_int r.wrong))
