(* Quantized-NN inference benchmark: the nn_* workloads run under every
   translated-execution engine (instrumented match, threaded) on
   the accumulator backend plus the code-straightening backend, and the
   per-layer checksums the kernels print are the verified guest output.

   The checksums fold every requantized activation into the PAL console,
   so a single flipped bit anywhere in a fixed-point matmul — a mistrans-
   lated multiply, a wrong shift in requantization, a clamped-vs-unclamped
   ReLU — changes the printed output. [verify] therefore demands
   byte-identical console output (and, between the accumulator engines,
   identical statistics) across all three runs; the straightening backend
   is held to output/outcome equality only, since its internal statistics
   are legitimately different.

   Headline metric is the same whole-VM V-ISA MIPS (per CPU second) as
   the functional-throughput sweep, per engine; the geomean
   threaded/matched speedup may not fall below [speedup_floor]. *)

type straight_result = {
  st_outcome : string;
  st_output : string;
  st_retired : int;
  st_secs : float;
}

type row = {
  name : string;
  checksums : int list;  (* per-layer checksums parsed from PAL output *)
  matched : Throughput.run_result;
  threaded : Throughput.run_result;
  straight : straight_result;
  mismatches : string list;
}

let default_fuel = Throughput.default_fuel

(* 0.75 x the 2.362x geomean recorded when the kernels landed: the
   nn-inference run exits 1 below it. *)
let speedup_floor = 1.77

(* The NN suite is every registry workload named nn_*. *)
let nn_workloads () =
  List.filter
    (fun (w : Workloads.t) ->
      String.length w.name > 3 && String.sub w.name 0 3 = "nn_")
    Workloads.all

(* Whitespace-separated decimal integers on the PAL console. *)
let parse_checksums output =
  String.split_on_char '\n' output
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map int_of_string_opt

let run_straight ?(scale = 1) ?(fuel = default_fuel) (w : Workloads.t) =
  let prog = Workloads.program ~scale w in
  let vm = Core.Vm.create ~kind:Core.Vm.Straight_only prog in
  let t0 = Sys.time () in
  let outcome = Core.Vm.run ~fuel vm in
  let secs = Sys.time () -. t0 in
  let st = Core.Vm.engine_stats vm in
  {
    st_outcome = Runner.outcome_string outcome;
    st_output = Core.Vm.output vm;
    st_retired = st.alpha_retired + vm.interp_insns;
    st_secs = secs;
  }

let verify ~(matched : Throughput.run_result) ~threaded ~straight =
  let ms = ref [] in
  List.iter
    (fun s -> ms := ("threaded: " ^ s) :: !ms)
    (Throughput.verify ~matched ~threaded);
  if straight.st_outcome <> matched.outcome then
    ms :=
      Printf.sprintf "straight: outcome %s vs %s" straight.st_outcome
        matched.outcome
      :: !ms;
  if straight.st_output <> matched.output then
    ms := "straight: checksum output differs" :: !ms;
  (* an NN kernel must actually emit per-layer checksums *)
  if List.length (parse_checksums matched.output) < 3 then
    ms := "fewer than 3 checksum values on the console" :: !ms;
  List.rev !ms

let sweep ?(scale = 1) ?(fuel = default_fuel) ?(repeats = 3) () =
  List.map
    (fun (w : Workloads.t) ->
      let run engine () = Throughput.run_once ~engine ~scale ~fuel w in
      let matched, threaded =
        Throughput.best_of ~repeats (run Core.Config.Matched)
          (run Core.Config.Threaded)
      in
      let straight = run_straight ~scale ~fuel w in
      {
        name = w.name;
        checksums = parse_checksums matched.output;
        matched;
        threaded;
        straight;
        mismatches = verify ~matched ~threaded ~straight;
      })
    (nn_workloads ())

let speedup r = Throughput.mips r.threaded /. Throughput.mips r.matched
let straight_mips r =
  float_of_int r.straight.st_retired /. r.straight.st_secs /. 1e6

let render fmt rows =
  Format.fprintf fmt
    "Quantized NN inference (whole-VM V-ISA MIPS, per-layer checksums \
     verified)@.";
  Format.fprintf fmt "%-10s %10s %10s %10s  %-28s %s@." "kernel" "matched"
    "threaded" "straight" "checksums" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s %10.2f %10.2f %10.2f  %-28s %s@." r.name
        (Throughput.mips r.matched)
        (Throughput.mips r.threaded)
        (straight_mips r)
        (String.concat " " (List.map string_of_int r.checksums))
        (if r.mismatches = [] then "ok" else String.concat "; " r.mismatches))
    rows;
  let gm = Runner.geomean (List.map speedup rows) in
  Format.fprintf fmt "%-10s %10s %9.2fx@." "geomean" "" gm;
  gm
