(* The ledger benchmark: end-to-end and per-layer metrics of the DBT on
   four workloads. See README.md for the workloads, the metrics and how
   to run it.

   With --workload, one workload runs in this process and the last line
   of standard output is a JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics, or with --trace 1 the per-layer
   ones. Without it, each workload runs in a child process of its own,
   one after another (so memo tables, caches and peak RSS are per
   workload), and the metrics are printed as "workload metric value
   unit" rows. *)

module type WORKLOAD = sig
  type inputs

  val setup : Common.ctx -> inputs
  val dispose : inputs -> unit
  val measure : Common.ctx -> inputs -> seconds:float -> Common.phase
  val probe : inputs -> (string * float) list
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("hot-loops", (module Hot_loops));
    ("cold-code", (module Cold_code));
    ("paper-eval", (module Paper_eval));
    ("service-mix", (module Service_mix)) ]

(* End-to-end metrics: name, unit, better. The result format wants every
   one on every workload and none that can read 0, so they are defined
   per operation rather than per workload (README.md maps them), and the
   share of failed operations is the result's [failed] / [attempted]. *)
let e2e =
  [ ("setup_s", "s", "lower");
    ("guest_mips", "MIPS", "higher");
    ("ops_per_s", "1/s", "higher");
    ("p50_ms", "ms", "lower");
    ("p99_ms", "ms", "lower");
    ("peak_rss_mb", "MB", "lower") ]

let percentile = Harness.Service_bench.percentile

(* ---------- one workload, in this process ---------- *)

let result_line ~failed ~attempted metrics =
  let number v =
    Printf.sprintf "%.17g" (if Float.is_finite v then v else max_float)
  in
  let metric (n, u, v) =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (number v) u
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

let end_to_end ~setup_s ~rss (ph : Common.phase) =
  let lat = Stats.sorted (Array.to_list ph.lat_ms) in
  Printf.printf "# %d latency samples, ms: p50 %.4g p95 %.4g p99 %.4g max %.4g\n"
    (Array.length ph.lat_ms) (percentile lat 0.50) (percentile lat 0.95)
    (percentile lat 0.99) (percentile lat 1.0);
  List.map2
    (fun (n, u, _) v -> (n, u, v))
    e2e
    [ setup_s; ph.guest_mips; ph.ops_per_s; percentile lat 0.50;
      percentile lat 0.99; rss ]

let run_one ~name ~trace_json (ctx : Common.ctx) =
  let (module W : WORKLOAD) = List.assoc name workloads in
  Printf.printf "# ledger %s seed=%d seconds=%g nproc=%d ocaml=%s trace=%b\n%!"
    name ctx.seed ctx.seconds Common.nproc Sys.ocaml_version ctx.trace;
  let n = if ctx.smoke then Some 1 else None in
  let setups () =
    Common.setup_times ?min:n ?max:n ~dispose:W.dispose (fun () -> W.setup ctx)
  in
  (* Set-up is timed in two bursts, before and after the timed phase, so
     that a slow second of the host does not set its median. *)
  let before = if ctx.trace then [] else setups () in
  let inputs, first = Common.time (fun () -> W.setup ctx) in
  let untraced () =
    let (ph, failed, attempted), rss =
      Fun.protect
        ~finally:(fun () -> W.dispose inputs)
        (fun () ->
          let ph = W.measure ctx inputs ~seconds:ctx.seconds in
          let failed, attempted = ph.verify () in
          ((ph, failed, attempted), Common.peak_rss_mb ()))
    in
    let times = before @ (first :: setups ()) in
    Printf.printf "# set-up times (s): %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.4f") times));
    (end_to_end ~setup_s:(Stats.median times) ~rss ph, failed, attempted)
  in
  (* Half the time untraced, half traced: the ratio of their rates is the
     tracing overhead. *)
  let traced () =
    let half = ctx.seconds /. 2.0 in
    let untraced = W.measure ctx inputs ~seconds:half in
    Obs.reset ();
    Obs.set_enabled true;
    Span.start ();
    let g0 = Gc.quick_stat () in
    let traced = W.measure ctx inputs ~seconds:half in
    let g1 = Gc.quick_stat () in
    Obs.set_enabled false;
    let spans = Span.stop () in
    let obs = Obs.collect () in
    let probe = W.probe inputs in
    let (f0, a0), v0 = Common.time untraced.verify in
    let (f1, a1), v1 = Common.time traced.verify in
    Option.iter
      (fun f -> Obs.Json.write_file f (Span.to_json ~workload:name spans))
      trace_json;
    let input =
      { Layers.spans; obs; traced; untraced; probe;
        minor_words = g1.minor_words -. g0.minor_words;
        major_collections = g1.major_collections - g0.major_collections;
        verify_s = v0 +. v1;
        interp_mips =
          Layers.ratio (float_of_int !Common.golden_insns) !Common.golden_s
          /. 1e6 }
    in
    List.iter
      (fun (layer, s) -> Printf.printf "# self %-24s %10.4f s\n" layer s)
      (Layers.self_times input);
    (Layers.compute input, f0 + f1, a0 + a1)
  in
  let metrics, failed, attempted =
    if ctx.trace then Fun.protect ~finally:(fun () -> W.dispose inputs) traced
    else untraced ()
  in
  print_endline (result_line ~failed ~attempted metrics)

(* ---------- every workload, each in a child process ---------- *)

type child = {
  lines : string list;  (* the "# " lines before the result *)
  failed : int;
  attempted : int;
  values : (string * (float * string)) list;  (* metric -> value, unit *)
}

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let module J = Obs.Json in
  let get conv k j = Option.get (Option.bind (J.member k j) conv) in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: rest ->
    let j = Result.get_ok (J.parse_string last) in
    let values =
      match J.member "metrics" j with
      | Some (J.Obj ms) ->
        List.map
          (fun (n, v) -> (n, (get J.to_float "value" v, get J.to_str "unit" v)))
          ms
      | _ -> []
    in
    { lines = List.rev rest; failed = get J.to_int "failed" j;
      attempted = get J.to_int "attempted" j; values }
  | _ -> failwith ("ledger failed: " ^ String.concat " " args)

let child_args (ctx : Common.ctx) ~name ~seed extra =
  [ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
    Printf.sprintf "%g" ctx.seconds; "--trace";
    (if ctx.trace then "1" else "0"); "--expected"; ctx.expected ]
  @ (if ctx.smoke then [ "--smoke" ] else [])
  @ extra

let header (ctx : Common.ctx) =
  Printf.printf "ledger seed=%d seconds=%g nproc=%d ocaml=%s rev=%s\n%!"
    ctx.seed ctx.seconds Common.nproc Sys.ocaml_version
    (Obs.Envelope.git_rev ())

(* Prints every metric of every workload; exits 1 if any output was
   wrong. With [trace_json], the spans of every workload go to that one
   file. *)
let run_all (ctx : Common.ctx) ~trace_json =
  header ctx;
  let bad = ref false and docs = ref [] in
  List.iter
    (fun (name, _) ->
      let part =
        Option.map (fun f -> Printf.sprintf "%s.%s.part" f name) trace_json
      in
      let extra =
        match part with Some p -> [ "--trace-json"; p ] | None -> []
      in
      let c = spawn (child_args ctx ~name ~seed:ctx.seed extra) in
      Option.iter
        (fun p ->
          docs := Result.get_ok (Obs.Json.parse_file p) :: !docs;
          Sys.remove p)
        part;
      List.iter
        (fun l ->
          if not (String.starts_with ~prefix:"# ledger" l) then
            Printf.printf "%s %s\n" name l)
        c.lines;
      List.iter
        (fun (m, (v, u)) -> Printf.printf "%s %s %.6g %s\n" name m v u)
        c.values;
      Printf.printf "%s failed %d of %d\n%!" name c.failed c.attempted;
      if c.failed > 0 then bad := true)
    workloads;
  Option.iter
    (fun f ->
      Obs.Json.(write_file f (Obj [ ("runs", List (List.rev !docs)) ])))
    trace_json;
  if !bad then exit 1

(* ---------- BENCHMARK.json ---------- *)

type declared = {
  d_workloads : string list;
  d_e2e : (string * string * string) list;  (* name, unit, better *)
  d_bounds : (string * float) list;
  d_layers : (string * string * string) list;
}

let read_benchmark path =
  let module J = Obs.Json in
  let j = Result.get_ok (J.parse_file path) in
  let list k =
    Option.value ~default:[] (Option.bind (J.member k j) J.to_list)
  in
  let get conv k o = Option.get (Option.bind (J.member k o) conv) in
  let str = get J.to_str in
  let metric o = (str "name" o, str "unit" o, str "better" o) in
  {
    d_workloads = List.map (str "name") (list "workloads");
    d_e2e = List.map metric (list "end_to_end");
    d_bounds =
      List.map
        (fun o -> (str "name" o, get J.to_float "bound" o))
        (list "end_to_end");
    d_layers = List.map metric (list "per_layer");
  }

(* ---------- calibration: --runs K ---------- *)

(* K untraced runs of each workload on seeds seed .. seed+K-1; prints each
   metric's median, quartiles and spread (IQR / median) next to its
   bound. *)
let calibrate (ctx : Common.ctx) ~runs ~benchmark =
  header ctx;
  let bounds = (read_benchmark benchmark).d_bounds in
  Printf.printf "%-12s %-12s %12s %12s %12s %8s %6s\n" "workload" "metric"
    "median" "q1" "q3" "spread" "bound";
  List.iter
    (fun (name, _) ->
      let cs =
        List.init runs (fun k ->
            let seed = ctx.seed + k in
            spawn (child_args { ctx with trace = false } ~name ~seed []))
      in
      List.iter
        (fun (m, _, _) ->
          let vs = List.map (fun c -> fst (List.assoc m c.values)) cs in
          let q1, q2, q3, spread =
            match vs with
            | [ v ] -> (v, v, v, 0.0)
            | _ -> (
              match Stats.quartiles vs with
              | [ a; b; c ] -> (a, b, c, Stats.iqr_share vs)
              | _ -> assert false)
          in
          Printf.printf "%-12s %-12s %12.6g %12.6g %12.6g %8.4f %6.2f\n%!"
            name m q2 q1 q3 spread (List.assoc m bounds))
        e2e;
      List.iter
        (fun c ->
          List.iter
            (fun l ->
              if String.starts_with ~prefix:"# invalid" l then
                Printf.printf "%s %s\n" name l)
            c.lines;
          if c.failed > 0 then
            Printf.printf "%s failed %d of %d\n" name c.failed c.attempted)
        cs)
    workloads

(* ---------- --smoke ---------- *)

let helper_checks () =
  let close a b = abs_float (a -. b) < 1e-9 in
  let lat = Stats.sorted [ 4.0; 1.0; infinity; 3.0; 2.0 ] in
  let spans =
    let s id parent name start stop =
      { Span.id; parent; name; req = -1; start; stop }
    in
    [ s 0 (-1) "root" 0.0 10.0; s 1 0 "a" 1.0 4.0; s 2 0 "b" 5.0 9.0;
      s 3 2 "c" 6.0 8.0 ]
  in
  let self n =
    match List.assoc_opt n (Span.by_name spans) with
    | Some (_, _, s) -> s
    | None -> nan
  in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  [ ("percentile p50", close (percentile lat 0.5) 3.0);
    ("percentile p80", close (percentile lat 0.8) 4.0);
    ("a failure counts as +inf", percentile lat 0.99 = infinity);
    ("median", close (Stats.median [ 1.0; 4.0; 2.0; 3.0 ]) 2.5);
    ( "quartiles as Python's statistics.quantiles",
      List.for_all2 close (Stats.quartiles one_to_ten) [ 2.75; 5.5; 8.25 ] );
    ("geomean", close (Harness.Runner.geomean [ 1.0; 4.0; 16.0 ]) 4.0);
    ( "self times",
      List.for_all2 close
        (List.map self [ "root"; "a"; "b"; "c" ])
        [ 3.0; 3.0; 2.0; 2.0 ] ) ]

let smoke (ctx : Common.ctx) ~benchmark =
  let ok = ref true in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        print_endline ("FAIL " ^ s))
      fmt
  in
  List.iter
    (fun (what, good) -> if not good then problem "helper: %s" what)
    (helper_checks ());
  let d = read_benchmark benchmark in
  let sort l = List.sort compare l in
  let layers =
    List.map (fun (m : Layers.metric) -> (m.name, m.unit, m.better)) Layers.all
  in
  if d.d_workloads <> List.map fst workloads then
    problem "BENCHMARK.json lists other workloads";
  if sort d.d_e2e <> sort e2e then
    problem "BENCHMARK.json lists other end-to-end metrics";
  if sort d.d_layers <> sort layers then
    problem "BENCHMARK.json lists other per-layer metrics";
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let c =
            spawn (child_args { ctx with trace } ~name ~seed:ctx.seed [])
          in
          if c.failed > 0 || c.attempted = 0 then
            problem "%s: %d of %d operations failed" name c.failed c.attempted;
          let printed = List.map (fun (n, (_, u)) -> (n, u)) c.values in
          let declared = if trace then d.d_layers else d.d_e2e in
          if sort printed <> sort (List.map (fun (n, u, _) -> (n, u)) declared)
          then problem "%s trace=%b: other metrics printed" name trace;
          Printf.printf "%s trace=%b: %d operations, %d metrics\n%!" name trace
            c.attempted (List.length printed))
        [ false; true ])
    workloads;
  if not !ok then exit 1;
  print_endline "ledger smoke: ok"

(* ---------- command line ---------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and trace_json = ref None and runs = ref 0 in
  let smoke_mode = ref false and regen = ref false in
  let expected = ref "bench/ledger/expected/paper-eval.txt" in
  let benchmark = ref "BENCHMARK.json" in
  let args =
    [ ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed of the inputs (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "S length of each timed phase (default 10)");
      ("--trace", Arg.Int (fun t -> trace := t = 1),
       "0|1 1 prints the per-layer metrics instead of the end-to-end ones");
      ("--traced", Arg.Set trace, " same as --trace 1");
      ("--trace-json",
       Arg.String
         (fun f ->
           trace_json := Some f;
           trace := true),
       "FILE write the recorded spans to FILE (implies --trace 1)");
      ("--runs", Arg.Set_int runs,
       "K calibration: K runs per workload, median and IQR of each metric");
      ("--smoke", Arg.Set smoke_mode,
       " about 1/20 of the work; checks outputs, metric names and helpers");
      ("--regen-expected", Arg.Set regen,
       " rewrite paper-eval's expected output");
      ("--expected", Arg.Set_string expected,
       "FILE paper-eval's expected output");
      ("--benchmark", Arg.Set_string benchmark,
       "FILE the BENCHMARK.json to check against") ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe [options]";
  let ctx =
    { Common.seed = !seed; seconds = (if !smoke_mode then 0.0 else !seconds);
      trace = !trace; smoke = !smoke_mode; expected = !expected }
  in
  match !workload with
  | Some name when not (List.mem_assoc name workloads) ->
    prerr_endline
      ("unknown workload; one of: "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  | Some name -> run_one ~name ~trace_json:!trace_json ctx
  | None ->
    if !regen then Paper_eval.regen ctx
    else if !runs > 0 then calibrate ctx ~runs:!runs ~benchmark:!benchmark
    else if !smoke_mode then smoke ctx ~benchmark:!benchmark
    else run_all ctx ~trace_json:!trace_json
