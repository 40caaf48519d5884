module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency
module Prng = Dr_engine.Prng
module Int_table = Dr_engine.Int_table

type payload = { report : int array }

module Msg = struct
  type t = payload

  let size_bits { report } = 64 + (32 * Array.length report)
  let tag _ = "submit"
end

module S = Dr_engine.Sim.Make (Msg)

type outcome = {
  published : int array option;
  odd_ok : bool;
  submissions_used : int;
  time : float;
}

let validate ~k ~t =
  if t < 0 || t >= k then Error "need 0 <= t < k"
  else if k <= 3 * t then
    Error "asynchronous median publication needs k > 3t (the contract cannot wait for everyone)"
  else Ok ()

let publish ?(seed = 1L) ?(rushing = true) ~feed ~fault ~honest_report () =
  let k = fault.Fault.k in
  let t = fault.Fault.t_count in
  let d = Feed.cells feed in
  let contract = k in
  let garbage = Array.make d 0 in
  let latency =
    if rushing then Latency.rushing ~fast:(fun i -> i < k && Fault.is_faulty fault i) ~eps:0.01
    else Latency.jittered (Prng.create seed)
  in
  let cfg =
    {
      (Dr_engine.Sim.default_config ~k:(k + 1) ~query_bit:(fun ~peer:_ _ -> false)) with
      seed;
      latency;
    }
  in
  let process i =
    if i = contract then begin
      (* The contract: accept the first k-t submissions, publish the
         cell-wise median. Waiting for more risks waiting forever. *)
      let received = ref [] in
      let senders = Int_table.create 16 in
      let quorum = k - t in
      S.await
        ~ready:(fun () -> Int_table.length senders >= quorum)
        ~on:(fun src { report } ->
          if (not (Int_table.mem senders src)) && Array.length report = d then begin
            Int_table.add senders src ();
            received := report :: !received
          end);
      Aggregate.cellwise_median !received
    end
    else begin
      let report = if Fault.is_faulty fault i then garbage else honest_report i in
      S.send contract { report };
      report
    end
  in
  let run = S.run cfg process in
  match run.Dr_engine.Sim.outputs.(contract) with
  | None -> { published = None; odd_ok = false; submissions_used = 0; time = run.Dr_engine.Sim.end_time }
  | Some (time, published) ->
    let odd_ok = ref true in
    Array.iteri
      (fun c v -> if not (Feed.in_honest_range feed ~cell:c v) then odd_ok := false)
      published;
    { published = Some published; odd_ok = !odd_ok; submissions_used = k - t; time }
