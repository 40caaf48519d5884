module Bitarray = Dr_source.Bitarray

type 'a problem = {
  name : string;
  compute : Bitarray.t -> 'a;
  equal : 'a -> 'a -> bool;
  describe : 'a -> string;
}

let parity =
  {
    name = "parity";
    compute = (fun x -> Bitarray.count_ones x land 1 = 1);
    equal = Bool.equal;
    describe = string_of_bool;
  }

let popcount =
  {
    name = "popcount";
    compute = Bitarray.count_ones;
    equal = Int.equal;
    describe = string_of_int;
  }

let find_first wanted =
  {
    name = Printf.sprintf "find-first-%b" wanted;
    compute =
      (fun x ->
        let n = Bitarray.length x in
        let rec go i = if i >= n then None else if Bitarray.get x i = wanted then Some i else go (i + 1) in
        go 0);
    equal = Option.equal Int.equal;
    describe = (function Some i -> string_of_int i | None -> "none");
  }

let all_equal =
  {
    name = "all-equal";
    compute =
      (fun x ->
        let ones = Bitarray.count_ones x in
        ones = 0 || ones = Bitarray.length x);
    equal = Bool.equal;
    describe = string_of_bool;
  }

let longest_run =
  {
    name = "longest-run";
    compute =
      (fun x ->
        let n = Bitarray.length x in
        let best = ref 0 and cur = ref 0 in
        for i = 0 to n - 1 do
          if i > 0 && Bool.equal (Bitarray.get x i) (Bitarray.get x (i - 1)) then incr cur
          else cur := 1;
          if !cur > !best then best := !cur
        done;
        !best);
    equal = Int.equal;
    describe = string_of_int;
  }

let slice ~pos ~len =
  {
    name = Printf.sprintf "slice[%d..%d)" pos (pos + len);
    compute = (fun x -> Bitarray.sub x ~pos ~len);
    equal = Bitarray.equal;
    describe = Bitarray.to_string;
  }

type 'a result = { download : Problem.report; value : 'a option }

let solve core ?opts inst problem =
  let download = Exec.run_core ?opts core inst in
  (* Download's correctness guarantee is exactly Y_i = X for every nonfaulty
     peer, so all nonfaulty peers evaluate f on the same array and agree. *)
  let value = if download.Problem.ok then Some (problem.compute inst.Problem.x) else None in
  { download; value }

let check problem inst result =
  match result.value with
  | Some v -> problem.equal v (problem.compute inst.Problem.x)
  | None -> false
