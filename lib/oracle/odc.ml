module Fault = Dr_adversary.Fault
open Dr_core

type params = {
  peers : int;
  peer_faults : int;
  sources : int;
  source_faults : int;
  cells : int;
  seed : int64;
}

let validate p =
  if p.peers <= 0 then Error "need at least one oracle node"
  else if p.peer_faults < 0 || 2 * p.peer_faults >= p.peers then
    Error "oracle nodes need an honest majority (2*peer_faults < peers)"
  else if p.cells <= 0 then Error "need at least one cell"
  else if p.source_faults < 0 || (2 * p.source_faults) + 1 > p.sources then
    Error "need 2*source_faults+1 <= sources"
  else Ok ()

type report = {
  method_name : string;
  odd_ok : bool;
  honest_reports_ok : int;
  cell_queries_total : int;
  cell_queries_max_node : int;
  download_ok : bool;
  published : int array;
}

let check p = match validate p with Ok () -> () | Error e -> invalid_arg ("Odc: " ^ e)

let make_feed p =
  (* Byzantine sources: the last ts of the m sources. *)
  let faulty = List.init p.source_faults (fun i -> p.sources - 1 - i) in
  Feed.make ~sources:p.sources ~faulty ~cells:p.cells ~seed:p.seed ()

let picked_sources p = List.init ((2 * p.source_faults) + 1) Fun.id

let peer_fault_set p = Fault.choose ~k:p.peers (Fault.Spread p.peer_faults)

let garbage_report p = Array.make p.cells 0
(* Byzantine nodes push an out-of-range constant at the contract. *)

let publish p fault reports_of_honest =
  (* The on-chain component receives one array per node and takes a
     cell-wise median; Byzantine nodes submit garbage. *)
  let submissions =
    List.init p.peers (fun i ->
        if Fault.is_honest fault i then reports_of_honest i else garbage_report p)
  in
  Aggregate.cellwise_median submissions

let odd_holds feed published =
  let ok = ref true in
  Array.iteri (fun c v -> if not (Feed.in_honest_range feed ~cell:c v) then ok := false) published;
  !ok

let node_median feed picked ~value_of =
  Array.init (Feed.cells feed) (fun c ->
      Aggregate.median (Array.of_list (List.map (fun s -> value_of ~source:s ~cell:c) picked)))

let count_ok feed fault p medians =
  let ok = ref 0 in
  for i = 0 to p.peers - 1 do
    if Fault.is_honest fault i && odd_holds feed medians.(i) then incr ok
  done;
  !ok

let baseline p =
  check p;
  let feed = make_feed p in
  let fault = peer_fault_set p in
  let picked = picked_sources p in
  (* Every node reads every cell of every picked source itself. *)
  let per_node_queries = List.length picked * p.cells in
  let medians =
    Array.init p.peers (fun _i -> node_median feed picked ~value_of:(fun ~source ~cell -> Feed.value feed ~source ~cell))
  in
  let honest_count = Fault.honest_count fault in
  let published = publish p fault (fun i -> medians.(i)) in
  {
    method_name = "odc-baseline";
    odd_ok = odd_holds feed published;
    honest_reports_ok = count_ok feed fault p medians;
    cell_queries_total = honest_count * per_node_queries;
    cell_queries_max_node = per_node_queries;
    download_ok = true;
    published;
  }

type protocol = [ `Committee | `Two_cycle | `Naive ]

let download_based ?(protocol = `Committee) p =
  check p;
  let feed = make_feed p in
  let fault = peer_fault_set p in
  let picked = picked_sources p in
  let honest = Fault.is_honest fault in
  (* One Download instance per picked source; each honest node ends up with
     the full array of every source. *)
  let total_bit_queries = ref 0 in
  let max_bit_queries = Array.make p.peers 0 in
  let download_ok = ref true in
  List.iter
    (fun s ->
      let values = Array.init p.cells (fun cell -> Feed.value feed ~source:s ~cell) in
      let inst =
        Word_download.make ~seed:(Int64.add p.seed (Int64.of_int s)) ~width:Feed.value_bits
          ~k:p.peers ~values fault
      in
      let trace = Dr_engine.Trace.create () in
      let opts = Exec.with_trace trace Exec.default in
      let core =
        match protocol with
        | `Committee -> Committee.core ~attack:Committee.Equivocate ()
        | `Two_cycle -> Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ()
        | `Naive -> Naive.core ()
      in
      let report = (Word_download.run core ~opts inst).Word_download.bits in
      if not report.Problem.ok then download_ok := false;
      total_bit_queries := !total_bit_queries + report.Problem.q_total;
      for i = 0 to p.peers - 1 do
        if honest i then begin
          let qi = List.length (Dr_engine.Trace.query_view trace i) in
          max_bit_queries.(i) <- max_bit_queries.(i) + qi
        end
      done)
    picked;
  (* An ok Download means every honest node holds each source's array, so
     the medians read the feed's values directly. *)
  let medians = Array.init p.peers (fun _ -> node_median feed picked ~value_of:(Feed.value feed)) in
  let published = publish p fault (fun i -> medians.(i)) in
  let to_cells bits = (bits + Feed.value_bits - 1) / Feed.value_bits in
  let max_node = Array.fold_left Int.max 0 max_bit_queries in
  {
    method_name =
      (match protocol with
      | `Committee -> "odc-download(committee)"
      | `Two_cycle -> "odc-download(2cycle)"
      | `Naive -> "odc-download(naive)");
    odd_ok = odd_holds feed published;
    honest_reports_ok = count_ok feed fault p medians;
    cell_queries_total = to_cells !total_bit_queries;
    cell_queries_max_node = to_cells max_node;
    download_ok = !download_ok;
    published;
  }

let full_flow ?protocol p =
  match (validate p, Pipeline.validate ~k:p.peers ~t:p.peer_faults) with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () ->
    let collection = download_based ?protocol p in
    let feed = make_feed p in
    let fault = peer_fault_set p in
    (* Every honest node submits the median array it computed in step 1. *)
    let honest_report _node = collection.published in
    let publication = Pipeline.publish ~seed:p.seed ~feed ~fault ~honest_report () in
    Ok (collection, publication)
