(* dr_sweep: parameter sweeps over any protocol, CSV on stdout.

   Examples:
     dr_sweep --vary beta --values 0,0.125,0.25,0.5,0.75 -p crash-general -k 32 -n 16384
     dr_sweep --vary n --values 1024,4096,16384 -p byz-committee -k 16 -t 4 --seeds 5
     dr_sweep --vary k --values 16,32,64,128 -p byz-2cycle -n 32768 --beta 0.125 *)

open Cmdliner
open Dr_core
module Cli_args = Dr_cli.Cli_args
module Crash_plan = Dr_adversary.Crash_plan

type axis = Vary_n | Vary_k | Vary_beta | Vary_b

let axis_arg =
  Arg.(
    value
    & opt (enum [ ("n", Vary_n); ("k", Vary_k); ("beta", Vary_beta); ("B", Vary_b) ]) Vary_beta
    & info [ "vary" ] ~doc:"Swept parameter: n, k, beta or B.")

let values_arg =
  Arg.(
    value
    & opt (list ~sep:',' string) [ "0"; "0.125"; "0.25"; "0.5" ]
    & info [ "values" ] ~doc:"Comma-separated values of the swept parameter.")

let protocol_arg = Cli_args.protocol_arg ~default:"crash-general" ()

let peers_arg = Arg.(value & opt int 32 & info [ "k"; "peers" ] ~doc:"Peers (fixed unless swept).")
let bits_arg = Arg.(value & opt int 16384 & info [ "n"; "bits" ] ~doc:"Input bits (fixed unless swept).")
let beta_arg = Arg.(value & opt float 0.25 & info [ "beta" ] ~doc:"Fault fraction (fixed unless swept).")
let t_arg = Arg.(value & opt (some int) None & info [ "t"; "faults" ] ~doc:"Fault count (overrides beta).")
let msg_arg = Arg.(value & opt (some int) None & info [ "B"; "msg-bits" ] ~doc:"Message bound (fixed unless swept).")
let seeds_arg = Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Runs per sweep point.")

let crash_arg =
  Cli_args.crash_arg
    ~applies:"It crashes the faulty peers of a crash-model protocol (default silent); \
              Byzantine protocols run without crashes."
let latency_arg = Cli_args.latency_arg ~default:"jitter"

let ( let* ) = Result.bind

(* One sweep point's (k, n, t, B), or a usage error naming the bad value:
   checked for every value before the first run. *)
let point axis ~k ~n ~beta ~t ~b value =
  let int () =
    match int_of_string_opt value with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "--values: %S is not an integer" value)
  in
  let* k, n, beta, b =
    match axis with
    | Vary_n -> Result.map (fun n -> (k, n, beta, b)) (int ())
    | Vary_k -> Result.map (fun k -> (k, n, beta, b)) (int ())
    | Vary_b -> Result.map (fun b -> (k, n, beta, Some b)) (int ())
    | Vary_beta -> (
      match float_of_string_opt value with
      | Some beta -> Ok (k, n, beta, b)
      | None -> Error (Printf.sprintf "--values: %S is not a number" value))
  in
  let* t =
    match (axis, t) with
    | Vary_beta, _ | _, None ->
      if Float.is_finite beta && beta >= 0. then
        Ok (min (k - 1) (int_of_float (Float.round (beta *. float_of_int k))))
      else Error (Printf.sprintf "need a finite beta >= 0, got %g" beta)
    | _, Some t -> Ok t
  in
  if k < 1 then Error (Printf.sprintf "need k >= 1, got %d" k)
  else if n < 1 then Error (Printf.sprintf "need n >= 1, got %d" n)
  else if t < 0 || t >= k then Error (Printf.sprintf "need 0 <= t < k, got t=%d with k=%d" t k)
  else
    match b with
    | Some b when b < 1 -> Error (Printf.sprintf "need B >= 1, got %d" b)
    | _ -> Ok (k, n, t, b)

let rec points axis ~k ~n ~beta ~t ~b = function
  | [] -> Ok []
  | value :: rest ->
    let* p = point axis ~k ~n ~beta ~t ~b value in
    let* ps = points axis ~k ~n ~beta ~t ~b rest in
    Ok (p :: ps)

let run axis values protocol k n beta t b seeds crash latency =
  let entry = try Ok (Cli_args.resolve_protocol protocol) with Failure msg -> Error msg in
  let crash = Option.value crash ~default:"silent" in
  match
    ( entry,
      Cli_args.latency_fn latency,
      Cli_args.crash_plan crash,
      points axis ~k ~n ~beta ~t ~b values )
  with
  | Error msg, _, _, _ | _, Error msg, _, _ | _, _, Error msg, _ | _, _, _, Error msg ->
    `Error (false, msg)
  | Ok entry, Ok latency, Ok crash, Ok points ->
  let name = Registry.name entry in
  print_endline "protocol,k,n,t,beta,B,seed,ok,q_max,q_mean,q_total,time,msgs,bits,max_msg";
  List.iter
    (fun (k, n, t, b) ->
      for s = 1 to seeds do
        let seed = Int64.of_int ((s * 7919) + 13) in
        let model = entry.Registry.model in
        let inst = Problem.random_instance ~seed ?b ~model ~k ~n ~t () in
        let lat = latency ~seed ~fault:inst.Problem.fault ~b:inst.Problem.b in
        let crash_plan =
          if model = Problem.Byzantine then Crash_plan.none else crash ~fault:inst.Problem.fault
        in
        let opts = Exec.make_opts ~latency:lat ~crash:crash_plan () in
        let r = entry.Registry.run ~opts inst in
        Printf.printf "%s,%d,%d,%d,%.4f,%d,%Ld,%b,%d,%.1f,%d,%.2f,%d,%d,%d\n" name k n t
          (float_of_int t /. float_of_int k)
          inst.Problem.b seed r.Problem.ok r.Problem.q_max r.Problem.q_mean r.Problem.q_total
          r.Problem.time r.Problem.msgs r.Problem.bits_sent r.Problem.max_msg_bits
      done)
    points;
  `Ok ()

let cmd =
  Cmd.v
    (Cmd.info "dr_sweep" ~doc:"Parameter sweeps over Download protocols (CSV output)")
    Term.(
      ret
        (const run $ axis_arg $ values_arg $ protocol_arg $ peers_arg $ bits_arg $ beta_arg
       $ t_arg $ msg_arg $ seeds_arg $ crash_arg $ latency_arg))

let () = exit (Cmd.eval cmd)
