(* The experiment harness: regenerates every table/figure-equivalent of the
   paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 byz   # selected sections
     dune exec bench/main.exe -- --list       # section names

   Exits 1 when a Table 1 row reads NO under <=spec or ok, or an oracle
   row fails a claim the oracle section gates. *)

(* A section returns false when a check it gates fails. Table 1 and the
   oracle section gate. E-3.7 and A-1 print failing rows on purpose, and so
   do E-4b's k <= 3t rows, which show the publication attack: the oracle
   section gates only its k > 3t rows. *)
let ungated run () = run (); true

let sections =
  [
    ("table1", Exp_table1.run, "Table 1: the query-complexity landscape");
    ("crash", ungated Exp_crash.run, "E-2.3 / E-2.13: crash-fault theorems");
    ("byz", ungated Exp_byz.run, "E-3.4 / E-3.7 / E-3.12: Byzantine-minority protocols");
    ("lowerbound", ungated Exp_lowerbound.run, "E-3.1 / E-3.2: Byzantine-majority lower bounds");
    ("oracle", Exp_oracle.run, "E-4: blockchain-oracle application");
    ("ablation", ungated Exp_ablation.run, "A-1 .. A-3: design-choice ablations");
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--list" args then
    List.iter (fun (name, _, doc) -> Printf.printf "%-12s %s\n" name doc) sections
  else begin
    let selected =
      match List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args with
      | [] -> List.map (fun (name, _, _) -> name) sections
      | names ->
        List.iter
          (fun name ->
            if not (List.exists (fun (s, _, _) -> s = name) sections) then begin
              Printf.eprintf "unknown section %S (try --list)\n" name;
              exit 2
            end)
          names;
        names
    in
    let failed = List.filter (fun (name, run, _) -> List.mem name selected && not (run ())) sections in
    if not (List.is_empty failed) then exit 1
  end
