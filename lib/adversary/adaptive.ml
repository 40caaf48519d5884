(* Adaptive Byzantine corruption policies.

   The catalog attacks (near-miss, consistent lie, flood, ...) decide what
   to forge before the run starts. An adaptive adversary instead listens to
   the traffic the schedule actually delivers and corrupts *that* — the
   alter_path / limited_broadcast behaviours of the Bracha-broadcast
   testbeds, transplanted to the Download protocols: echo an observed
   report with a flipped bit, either to everyone or to only half the peers
   so the honest views split. The protocol modules own the message types;
   this module owns the policy decisions so every protocol corrupts the
   same way. *)

type plan = Echo_corrupt | Split_brain

let corrupt_index ~rank ~len =
  if len <= 0 then invalid_arg "Adaptive.corrupt_index: empty payload";
  rank mod len

let split_targets ~k ~me =
  if k <= 0 then invalid_arg "Adaptive.split_targets: k must be positive";
  let half = (k + 1) / 2 in
  List.filter (fun dst -> dst <> me) (List.init half Fun.id)
