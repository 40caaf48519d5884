type params = { base : Odc.params; epochs : int }

type epoch_result = {
  collection_odd : bool;
  publication_odd : bool;
  cell_queries : int;
  baseline_cell_queries : int;
}

type summary = {
  results : epoch_result list;
  all_ok : bool;
  total_queries : int;
  baseline_total : int;
  saving : float;
}

let run ?protocol { base; epochs } =
  if epochs <= 0 then Error "need at least one epoch"
  else begin
    match Odc.full_flow ?protocol base with
    | Error e -> Error e
    | Ok _ ->
      let results =
        List.init epochs (fun e ->
            let p = { base with Odc.seed = Int64.add base.Odc.seed (Int64.of_int (1000 * e)) } in
            let baseline = Odc.baseline p in
            match Odc.full_flow ?protocol p with
            | Error _ -> assert false (* validated above; parameters identical *)
            | Ok (collection, publication) ->
              {
                collection_odd = collection.Odc.odd_ok && collection.Odc.download_ok;
                publication_odd = publication.Pipeline.odd_ok;
                cell_queries = collection.Odc.cell_queries_total;
                baseline_cell_queries = baseline.Odc.cell_queries_total;
              })
      in
      let total_queries = List.fold_left (fun acc r -> acc + r.cell_queries) 0 results in
      let baseline_total =
        List.fold_left (fun acc r -> acc + r.baseline_cell_queries) 0 results
      in
      Ok
        {
          results;
          all_ok = List.for_all (fun r -> r.collection_odd && r.publication_odd) results;
          total_queries;
          baseline_total;
          saving = float_of_int baseline_total /. float_of_int (max 1 total_queries);
        }
  end
