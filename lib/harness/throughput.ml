(* Functional-throughput benchmark: translated execution speed of the VM
   itself (no timing model attached), measured in V-ISA MIPS over the
   twelve workloads.

   Each workload runs twice under identical configurations except for
   {!Core.Config.t.engine}: once on the instrumented variant-match engine
   ([Matched]) and once on the threaded-code engine ([Threaded]). The two
   runs must finish in byte-identical architected state with identical
   statistics — [verify] checks that — which doubles as an end-to-end
   differential test of the closure-compiled path at full workload scale.

   The headline metric is whole-VM throughput: every architecturally
   retired V-ISA instruction (interpreted + translated) divided by
   wall-clock seconds. That is the quantity a functional-mode user of the
   DBT experiences; fragment-only rates would flatter the engines by
   hiding profiling and translation time. *)

type run_result = {
  outcome : string;
  output : string; (* PAL console output *)
  checksum : int64; (* architected register checksum *)
  i_exec : int;
  by_class : int array;
  alpha : int; (* V-ISA instructions retired in translated mode *)
  frag_enters : int;
  dras_hits : int;
  dras_misses : int;
  interp_insns : int;
  superblocks : int;
  secs : float;
}

let default_fuel = 100_000_000

let run_once ~engine ?(scale = 1) ?(fuel = default_fuel) (w : Workloads.t) =
  let prog = Workloads.program ~scale w in
  let cfg = { Core.Config.default with engine } in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  let t0 = Unix.gettimeofday () in
  let outcome = Core.Vm.run ~fuel vm in
  let secs = Unix.gettimeofday () -. t0 in
  let outcome =
    match outcome with
    | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
    | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
    | Core.Vm.Out_of_fuel -> "fuel"
  in
  Core.Vm.publish_obs vm;
  let st = Core.Vm.engine_stats vm in
  {
    outcome;
    output = Core.Vm.output vm;
    checksum = Core.Vm.reg_checksum vm;
    i_exec = st.i_exec;
    by_class = Array.copy st.by_class;
    alpha = st.alpha_retired;
    frag_enters = st.frag_enters;
    dras_hits = st.ret_dras_hits;
    dras_misses = st.ret_dras_misses;
    interp_insns = vm.interp_insns;
    superblocks = vm.superblocks;
    secs;
  }

(* V-ISA instructions architecturally retired by the run. *)
let retired r = r.alpha + r.interp_insns
let mips r = float_of_int (retired r) /. r.secs /. 1e6

(* Everything except wall-clock time must agree between the engines. *)
let verify ~(matched : run_result) ~(threaded : run_result) =
  let ms = ref [] in
  let chk name got want =
    if got <> want then ms := Printf.sprintf "%s: %s vs %s" name got want :: !ms
  in
  let chki name got want =
    chk name (string_of_int got) (string_of_int want)
  in
  chk "outcome" threaded.outcome matched.outcome;
  chk "output" threaded.output matched.output;
  chk "reg_checksum"
    (Printf.sprintf "%#Lx" threaded.checksum)
    (Printf.sprintf "%#Lx" matched.checksum);
  chki "i_exec" threaded.i_exec matched.i_exec;
  Array.iteri
    (fun i c -> chki (Printf.sprintf "by_class.(%d)" i) threaded.by_class.(i) c)
    matched.by_class;
  chki "alpha_retired" threaded.alpha matched.alpha;
  chki "frag_enters" threaded.frag_enters matched.frag_enters;
  chki "ret_dras_hits" threaded.dras_hits matched.dras_hits;
  chki "ret_dras_misses" threaded.dras_misses matched.dras_misses;
  chki "interp_insns" threaded.interp_insns matched.interp_insns;
  chki "superblocks" threaded.superblocks matched.superblocks;
  List.rev !ms

type row = {
  name : string;
  matched : run_result; (* best-of-repeats timing *)
  threaded : run_result;
  mismatches : string list;
}

let speedup r = mips r.threaded /. mips r.matched

(* Best-of-N wall clock; the simulations are deterministic, so state and
   statistics are identical across repeats and only timing varies. *)
let best ~repeats f =
  let r0 = f () in
  let best = ref r0 in
  for _ = 2 to repeats do
    let r = f () in
    if r.secs < !best.secs then best := r
  done;
  !best

let sweep ?(scale = 1) ?(fuel = default_fuel) ?(repeats = 3) () =
  List.map
    (fun (w : Workloads.t) ->
      let matched =
        best ~repeats (fun () -> run_once ~engine:Core.Config.Matched ~scale ~fuel w)
      in
      let threaded =
        best ~repeats (fun () ->
            run_once ~engine:Core.Config.Threaded ~scale ~fuel w)
      in
      { name = w.name; matched; threaded; mismatches = verify ~matched ~threaded })
    Workloads.all

type jobs_row = { jobs : int; wall_secs : float; agg_mips : float }

(* Aggregate threaded-engine throughput with the workload sweep sharded
   over a worker pool — the experiment harness's usage pattern. *)
let jobs_sweep ~jobs ?(scale = 1) ?(fuel = default_fuel) () =
  let t0 = Unix.gettimeofday () in
  let results =
    Pool.with_pool ~jobs (fun pool ->
        Workloads.all
        |> List.map (fun w ->
               Pool.submit pool (fun () ->
                   run_once ~engine:Core.Config.Threaded ~scale ~fuel w))
        |> List.map Pool.await)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let total = List.fold_left (fun a r -> a + retired r) 0 results in
  { jobs; wall_secs = wall; agg_mips = float_of_int total /. wall /. 1e6 }

let render fmt rows =
  Format.fprintf fmt
    "Functional throughput (whole-VM V-ISA MIPS, translated execution)@.";
  Format.fprintf fmt "%-12s %12s %12s %10s %10s  %s@." "workload" "matched"
    "threaded" "speedup" "xlated%" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %12.2f %12.2f %9.2fx %9.1f%%  %s@." r.name
        (mips r.matched) (mips r.threaded) (speedup r)
        (100.0 *. float_of_int r.threaded.alpha
        /. float_of_int (max 1 (retired r.threaded)))
        (if r.mismatches = [] then "ok"
         else String.concat "; " r.mismatches))
    rows;
  let gm = Runner.geomean (List.map speedup rows) in
  Format.fprintf fmt "%-12s %12s %12s %9.2fx@." "geomean" "" "" gm;
  gm

(* Baseline schema, version 2: same per-workload fields as /1 but carried
   inside the shared {!Obs.Envelope}, and the pool-scaling series renamed
   from "jobs" (which the envelope now claims) to "jobs_sweep". The
   [--check] reader accepts both versions. *)
let schema = "ildp-dbt-exec-bench/2"

let json_of_row r =
  let module J = Obs.Json in
  J.Obj
    [ ("name", J.String r.name);
      ("outcome", J.String r.threaded.outcome);
      ("v_insns", J.Int (retired r.threaded));
      ("translated_alpha", J.Int r.threaded.alpha);
      ("interp_insns", J.Int r.threaded.interp_insns);
      ("match_secs", J.Float r.matched.secs);
      ("match_mips", J.Float (mips r.matched));
      ("threaded_secs", J.Float r.threaded.secs);
      ("threaded_mips", J.Float (mips r.threaded));
      ("speedup", J.Float (speedup r));
      ("verified", J.Bool (r.mismatches = [])) ]

let to_json ~jobs ~scale ~fuel ~repeats rows jobs_rows =
  let module J = Obs.Json in
  Obs.Envelope.wrap ~schema ~jobs
    [ ("scale", J.Int scale);
      ("fuel", J.Int fuel);
      ("repeats", J.Int repeats);
      ("workloads", J.List (List.map json_of_row rows));
      ("geomean_speedup", J.Float (Runner.geomean (List.map speedup rows)));
      ("jobs_sweep",
       J.List
         (List.map
            (fun (j : jobs_row) ->
              J.Obj
                [ ("jobs", J.Int j.jobs);
                  ("wall_secs", J.Float j.wall_secs);
                  ("agg_mips", J.Float j.agg_mips) ])
            jobs_rows)) ]

let write_json path ~jobs ~scale ~fuel ~repeats rows jobs_rows =
  Obs.Json.write_file path (to_json ~jobs ~scale ~fuel ~repeats rows jobs_rows)
