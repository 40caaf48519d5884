type bounds = {
  protocol : string;
  theorem : string;
  resilience : k:int -> t:int -> bool;
  q_bound : k:int -> n:int -> t:int -> b:int -> float;
  randomized : bool;
}

let gamma ~k ~t = float_of_int (k - t) /. float_of_int k

let per_peer_share ~k ~n = ceil (float_of_int n /. float_of_int k)

let naive =
  {
    protocol = Naive.name;
    theorem = "folklore";
    resilience = (fun ~k:_ ~t:_ -> true);
    q_bound = (fun ~k:_ ~n ~t:_ ~b:_ -> float_of_int n);
    randomized = false;
  }

let balanced =
  {
    protocol = Balanced.name;
    theorem = "fault-free baseline";
    resilience = (fun ~k:_ ~t -> t = 0);
    q_bound = (fun ~k ~n ~t:_ ~b:_ -> per_peer_share ~k ~n);
    randomized = false;
  }

let crash_single =
  {
    protocol = Crash_single.name;
    theorem = "Theorem 2.3";
    resilience = (fun ~k ~t -> t <= 1 && k >= 2);
    q_bound =
      (fun ~k ~n ~t:_ ~b:_ ->
        (* n/k for the own share, plus the 1/(k-1) re-share, plus a couple
           of boundary bits from the ceilings. *)
        per_peer_share ~k ~n
        +. ceil (per_peer_share ~k ~n /. float_of_int (max 1 (k - 1)))
        +. 2.);
    randomized = false;
  }

let crash_general =
  {
    protocol = Crash_general.name;
    theorem = "Theorem 2.13";
    resilience = (fun ~k ~t -> t < k);
    q_bound =
      (fun ~k ~n ~t ~b:_ ->
        (* Geometric reassignment: n/(gamma k), plus the final direct n/k,
           plus 2k slack for the pseudo-random spread of the common rule. *)
        (float_of_int n /. (gamma ~k ~t *. float_of_int k))
        +. per_peer_share ~k ~n
        +. float_of_int (2 * k)
        +. 2.);
    randomized = false;
  }

let committee =
  {
    protocol = Committee.name;
    theorem = "Theorem 3.4";
    resilience = (fun ~k ~t -> (2 * t) + 1 <= k);
    q_bound =
      (fun ~k ~n ~t ~b ->
        (* Per peer: one query per bit of every block whose committee it
           sits on. Round-robin membership over m = ceil(n/payload) blocks
           of committees of c = 2t+1 is at most ceil(m*c/k) + 1. *)
        let payload = max 1 (b - 64) in
        let m = (n + payload - 1) / payload in
        let c = (2 * t) + 1 in
        let memberships = ((m * c) + k - 1) / k + 1 in
        float_of_int (memberships * payload));
    randomized = false;
  }

let byz_2cycle =
  {
    protocol = Byz_2cycle.name;
    theorem = "Theorem 3.7";
    resilience = (fun ~k ~t -> k - (2 * t) >= 1);
    q_bound =
      (fun ~k ~n ~t ~b:_ ->
        let s, _rho = Byz_2cycle.plan ~k ~n ~t in
        (* n/s for the own segment + at most one decision-tree query per
           received string (<= k) + segment-boundary slack. *)
        ceil (float_of_int n /. float_of_int s) +. float_of_int k +. float_of_int s);
    randomized = true;
  }

let byz_multicycle =
  {
    protocol = Byz_multicycle.name;
    theorem = "Theorem 3.12";
    resilience = (fun ~k ~t -> k - (2 * t) >= 1);
    q_bound =
      (fun ~k ~n ~t ~b:_ ->
        let s1, cycles = Byz_multicycle.plan ~k ~n ~t in
        (* n/s1 base + per-cycle tree work bounded by the received strings. *)
        ceil (float_of_int n /. float_of_int s1)
        +. float_of_int (cycles * k)
        +. float_of_int s1);
    randomized = true;
  }

let within bounds ~k ~n ~t ~b ~measured =
  bounds.resilience ~k ~t
  && Float.compare (float_of_int measured) (bounds.q_bound ~k ~n ~t ~b) <= 0
