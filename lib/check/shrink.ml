let remove_chunk s ~pos ~len =
  List.filteri (fun i _ -> i < pos || i >= pos + len) s

let set_nth s i v = List.mapi (fun j x -> if j = i then v else x) s

let minimize ?(max_tests = 20_000) ~fails script =
  let tests = ref 0 in
  let try_fails s =
    if !tests >= max_tests then false
    else begin
      incr tests;
      fails s
    end
  in
  if not (try_fails script) then script
  else begin
    let cur = ref script in
    let changed = ref true in
    while !changed && !tests < max_tests do
      changed := false;
      (* Deletion pass: ddmin-style, chunks of halving size down to single
         elements. On a successful removal the same position is retried (the
         next chunk shifted into place). *)
      let size = ref (max 1 (List.length !cur / 2)) in
      while !size >= 1 do
        let pos = ref 0 in
        while !pos < List.length !cur do
          let cand = remove_chunk !cur ~pos:!pos ~len:!size in
          if try_fails cand then begin
            cur := cand;
            changed := true
          end
          else pos := !pos + !size
        done;
        size := !size / 2
      done;
      (* Lowering pass: drive each surviving choice toward 0 — straight to 0
         when that still fails, by single decrements otherwise. *)
      List.iteri
        (fun i _ ->
          let v () = List.nth !cur i in
          if v () > 0 && try_fails (set_nth !cur i 0) then begin
            cur := set_nth !cur i 0;
            changed := true
          end
          else
            while v () > 0 && try_fails (set_nth !cur i (v () - 1)) do
              cur := set_nth !cur i (v () - 1);
              changed := true
            done)
        !cur
    done;
    !cur
  end
