(* Benchmark harness entry point.

   Default mode regenerates every table and figure of the paper's
   evaluation section over the fourteen workloads:

     dune exec bench/main.exe                  # everything, scale 1
     dune exec bench/main.exe -- -e fig8       # one experiment
     dune exec bench/main.exe -- --scale 3     # longer runs
     dune exec bench/main.exe -- --list        # experiment ids

   [--bechamel] instead runs wall-clock microbenchmarks of the DBT pipeline
   itself (translation throughput, interpretation, timing-model feed rate),
   one Bechamel test per stage.

   The special experiments (functional-throughput, timing-fastfwd,
   persist, nn-inference, stress) verify what they measure and exit 1 on
   a failed gate; the @perf-smoke, @timing-smoke, @persist-smoke,
   @nn-smoke and @stress-smoke aliases run them in tier-1. *)

let scale = ref 1
let scale_set = ref false (* --scale given explicitly *)
let sample_interval = ref Uarch.Fastfwd.default_interval
let experiment = ref None
let bechamel = ref false
let list_only = ref false
let csv_dir = ref None
let jobs = ref 0 (* 0 = Domain.recommended_domain_count () *)
let repeats = ref 3
let telemetry_json = ref None

let args =
  [
    ("-e", Arg.String (fun s -> experiment := Some s), "ID run one experiment");
    ("--scale",
     Arg.Int
       (fun n ->
         scale := n;
         scale_set := true),
     "N workload scale factor (default 1; timing-fastfwd defaults to 10)");
    ("--sample-interval", Arg.Set_int sample_interval,
     Printf.sprintf
       "N fast-forward sampling interval in committed instructions \
        (default %d; 0 = always-on detailed model)"
       Uarch.Fastfwd.default_interval);
    ("--jobs", Arg.Set_int jobs,
     "N simulation worker domains (default: recommended domain count)");
    ("--repeats", Arg.Set_int repeats,
     "N best-of-N timing repeats for functional-throughput (default 3)");
    ("--telemetry-json", Arg.String (fun f -> telemetry_json := Some f),
     "FILE enable telemetry; write counters/spans as JSON (+ .csv sibling)");
    ("--bechamel", Arg.Set bechamel, " run Bechamel microbenchmarks");
    ("--csv", Arg.String (fun d -> csv_dir := Some d),
     "DIR export per-benchmark series as CSV files");
    ("--list", Arg.Set list_only, " list experiment ids");
  ]

let effective_jobs () =
  if !jobs > 0 then !jobs else Domain.recommended_domain_count ()

(* ---------- Bechamel microbenchmarks ---------- *)

let bench_superblock_translation isa =
  (* translate the gzip workload's hot loop over and over *)
  let w = List.hd Workloads.all in
  let prog = Workloads.program w in
  Bechamel.Test.make
    ~name:(Printf.sprintf "translate (%s ISA)" (Core.Config.isa_name isa))
    (Bechamel.Staged.stage (fun () ->
         let interp = Alpha.Interp.create prog in
         let ctx = Core.Translate.create { Core.Config.default with isa } in
         Core.Translate.map_vm_memory interp.mem;
         (* skip the init code, then form + translate the first hot region *)
         ignore (Alpha.Interp.run ~fuel:20_000 interp);
         let sb, _ =
           Core.Superblock.form ~interp ~max_size:200 ~is_translated:(fun _ -> false) ()
         in
         Core.Translate.translate ctx interp.mem sb))

let bench_interpreter () =
  let w = List.hd Workloads.all in
  let prog = Workloads.program w in
  Bechamel.Test.make ~name:"interpret 10k insns"
    (Bechamel.Staged.stage (fun () ->
         let interp = Alpha.Interp.create prog in
         ignore (Alpha.Interp.run ~fuel:10_000 interp)))

let bench_vm_exec () =
  let w = List.hd Workloads.all in
  let prog = Workloads.program w in
  Bechamel.Test.make ~name:"VM run 100k V-insns (modified ISA)"
    (Bechamel.Staged.stage (fun () ->
         let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
         ignore (Core.Vm.run ~fuel:100_000 vm)))

let bench_ildp_timing () =
  let w = List.hd Workloads.all in
  let prog = Workloads.program w in
  Bechamel.Test.make ~name:"VM + ILDP timing, 100k V-insns"
    (Bechamel.Staged.stage (fun () ->
         let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
         let m = Uarch.Ildp.create () in
         ignore
           (Core.Vm.run ~sink:(Uarch.Ildp.feed m)
              ~boundary:(fun () -> Uarch.Ildp.boundary m)
              ~fuel:100_000 vm)))

let bench_ooo_timing () =
  let w = List.hd Workloads.all in
  let prog = Workloads.program w in
  Bechamel.Test.make ~name:"interp + OoO timing, 100k V-insns"
    (Bechamel.Staged.stage (fun () ->
         let st = Alpha.Interp.create prog in
         let m = Uarch.Ooo.create () in
         ignore (Alpha.Interp.run_ev ~fuel:100_000 st ~sink:(Uarch.Ooo.feed m))))

let run_bechamel () =
  let open Bechamel in
  let benchmarks =
    Test.make_grouped ~name:"ildp_dbt"
      [
        bench_interpreter ();
        bench_superblock_translation Core.Config.Basic;
        bench_superblock_translation Core.Config.Modified;
        bench_vm_exec ();
        bench_ildp_timing ();
        bench_ooo_timing ();
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 2.0) () in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] benchmarks in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols clock raw in
  (* plain-text report: ns per run for each stage *)
  let rows = ref [] in
  Hashtbl.iter
    (fun name (r : Analyze.OLS.t) ->
      let line =
        match Analyze.OLS.estimates r with
        | Some (est :: _) -> Printf.sprintf "%-45s %14.0f ns/run" name est
        | _ -> Printf.sprintf "%-45s (no estimate)" name
      in
      rows := line :: !rows)
    results;
  List.iter print_endline (List.sort compare !rows)

(* ---------- functional throughput (threaded vs. match engine) ---------- *)

(* Not a paper experiment: wall-clock throughput of the VM's two translated
   execution engines, with full cross-engine state verification. Exit
   status 1 on any divergence or when the geomean speedup falls below
   [Throughput.speedup_floor], so CI can gate on it (@perf-smoke). *)
let run_throughput fmt ~scale ~repeats =
  let rows = Harness.Throughput.sweep ~scale ~repeats () in
  let gm = Harness.Throughput.render fmt rows in
  Format.pp_print_flush fmt ();
  if
    List.exists
      (fun (r : Harness.Throughput.row) -> r.mismatches <> [])
      rows
  then begin
    prerr_endline
      "functional-throughput: threaded engine diverged from match engine";
    exit 1
  end;
  if gm < Harness.Throughput.speedup_floor then begin
    Printf.eprintf
      "functional-throughput: geomean speedup %.2fx below the %.2fx floor\n"
      gm Harness.Throughput.speedup_floor;
    exit 1
  end

(* ---------- fast-forward timing (sampled vs full-fidelity ILDP) ---------- *)

(* The timing sweep defaults to 10x workload scale: interval sampling is
   exactly what makes the larger runs affordable, and at scale 1 some
   workloads commit too few translated instructions for the sampled
   estimate to be meaningful. An explicit --scale always wins. *)
let timing_scale () = if !scale_set then !scale else 10

(* Not a paper experiment: sampled vs full-fidelity ILDP timing over the
   workloads, gated on the sampled estimate's accuracy (not speed). Exit
   status 1 on any divergence, so CI can gate on it (@timing-smoke). *)
let run_timing fmt ~scale ~interval =
  let rows = Harness.Fastfwd_bench.sweep ~interval ~scale () in
  let max_err = Harness.Fastfwd_bench.render fmt rows in
  Format.pp_print_flush fmt ();
  if
    List.exists
      (fun (r : Harness.Fastfwd_bench.row) -> r.mismatches <> [])
      rows
  then begin
    prerr_endline "timing-fastfwd: sampled run diverged from full fidelity";
    exit 1
  end;
  if max_err > Harness.Fastfwd_bench.err_bound then begin
    Printf.eprintf "timing-fastfwd: sampled V-IPC error %.1f%% exceeds %.0f%%\n"
      (100.0 *. max_err)
      (100.0 *. Harness.Fastfwd_bench.err_bound);
    exit 1
  end

(* ---------- persistent-snapshot warm start (cold vs warm) ---------- *)

(* Not a paper experiment: cold-vs-warm start of the VM from a persisted
   translation-cache snapshot, with full cold/warm state verification and
   the translation-phase reduction measured in deterministic cost-model
   units. Exit status 1 on any divergence or on a workload whose warm run
   saves no translate units (@persist-smoke gates on it). *)
let run_persist fmt ~scale =
  let rows =
    try Harness.Persist_bench.sweep ~scale ()
    with Persist.Snapshot.Error msg ->
      Printf.eprintf "snapshot error: %s\n" msg;
      exit 1
  in
  ignore (Harness.Persist_bench.render fmt rows);
  Format.pp_print_flush fmt ();
  if
    List.exists
      (fun (r : Harness.Persist_bench.row) -> r.mismatches <> [])
      rows
  then begin
    prerr_endline "persist: warm start diverged from cold start";
    exit 1
  end

(* ---------- quantized NN inference (cross-engine, checksum-verified) ---------- *)

(* Not a paper experiment: the nn_* kernels under both accumulator
   engines plus the straightening backend, gated on the per-layer
   checksums agreeing everywhere and on the geomean speedup staying above
   [Nn_bench.speedup_floor]. Exit status 1 on either, so CI can gate on
   it (@nn-smoke). *)
let run_nn fmt ~scale ~repeats =
  let rows = Harness.Nn_bench.sweep ~scale ~repeats () in
  let gm = Harness.Nn_bench.render fmt rows in
  Format.pp_print_flush fmt ();
  if List.exists (fun (r : Harness.Nn_bench.row) -> r.mismatches <> []) rows
  then begin
    prerr_endline "nn-inference: engines disagree on NN kernel checksums";
    exit 1
  end;
  if gm < Harness.Nn_bench.speedup_floor then begin
    Printf.eprintf
      "nn-inference: geomean speedup %.2fx below the %.2fx floor\n" gm
      Harness.Nn_bench.speedup_floor;
    exit 1
  end

(* ---------- adversarial stress (telemetry-gated, interpreter-verified) ---------- *)

(* Not a paper experiment: the three stress arms against configurations
   chosen to let each hit its target mechanism, with translator-health
   telemetry recorded and every run verified against the golden
   interpreter. Exit status 1 if any arm diverges or misses its target,
   so CI can gate on it (@stress-smoke). *)
let run_stress fmt ~scale =
  let s = Harness.Stress_bench.sweep ~scale () in
  Harness.Stress_bench.render fmt s;
  Format.pp_print_flush fmt ();
  if
    List.exists
      (fun (r : Harness.Stress_bench.row) -> r.s_mismatches <> [])
      (s.reference :: s.arms)
  then begin
    prerr_endline "stress: a stress arm diverged from the golden interpreter";
    exit 1
  end;
  if not (Harness.Stress_bench.all_targets_met s) then begin
    prerr_endline "stress: an arm no longer hits its target mechanism";
    exit 1
  end

(* Plan -> parallel cache warm -> serial render. The render functions only
   read memoised results, so console output is byte-identical at any job
   count; rows are formatted in the same order as a serial run. *)
let run_experiments fmt exps ~scale =
  Harness.Pool.with_pool ~jobs:(effective_jobs ()) (fun pool ->
      List.iter
        (fun (e : Harness.Experiments.exp) ->
          Harness.Runner.prewarm ~pool (e.plan ~scale);
          e.render fmt ~scale;
          Format.pp_print_flush fmt ())
        exps)

(* ---------- special (non-registry) experiments ----------

   Engine/infrastructure gates that live outside the paper-table registry
   in Harness.Experiments: each entry is (id, description, runner), and
   both --list and the -e dispatch are driven from this one table, so an
   experiment added here can never be silently missing from --list. *)
let specials () : (string * string * (Format.formatter -> unit)) list =
  [
    ("functional-throughput",
     "VM execution-engine throughput (threaded vs. match), verified",
     fun fmt -> run_throughput fmt ~scale:!scale ~repeats:!repeats);
    ("timing-fastfwd",
     "sampled vs full-fidelity ILDP timing, accuracy-gated",
     fun fmt -> run_timing fmt ~scale:(timing_scale ()) ~interval:!sample_interval);
    ("persist",
     "cold vs warm start from a translation-cache snapshot, verified",
     fun fmt -> run_persist fmt ~scale:!scale);
    ("nn-inference",
     "quantized NN kernels across all engines and backends, checksum-verified",
     fun fmt -> run_nn fmt ~scale:!scale ~repeats:!repeats);
    ("stress",
     "adversarial stress arms with translator-health telemetry, target-gated",
     fun fmt -> run_stress fmt ~scale:!scale);
  ]

let () =
  Arg.parse args (fun _ -> ()) "ILDP DBT benchmark harness";
  (* Telemetry export covers the whole process (including early exits on
     verification failure, which is when a counter dump is most wanted),
     hence the at_exit: worker-domain slabs outlive their domains, so a
     collect at process end still sees every observation. *)
  Option.iter
    (fun path ->
      Obs.set_enabled true;
      at_exit (fun () ->
          let snap = Obs.collect () in
          Obs.Envelope.write_telemetry path ~jobs:(effective_jobs ()) snap;
          let csv = Filename.remove_extension path ^ ".csv" in
          ignore (Harness.Csv.telemetry csv snap);
          Printf.printf "wrote %s\nwrote %s\n" path csv))
    !telemetry_json;
  if !list_only then begin
    List.iter
      (fun (e : Harness.Experiments.exp) -> Printf.printf "%-8s %s\n" e.id e.desc)
      Harness.Experiments.all;
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-8s %s\n" id desc)
      (specials ())
  end
  else if !bechamel then run_bechamel ()
  else if !csv_dir <> None then begin
    let dir = Option.get !csv_dir in
    (* warm the runs behind the exported series in parallel, then export *)
    Harness.Pool.with_pool ~jobs:(effective_jobs ()) (fun pool ->
        let plans =
          List.concat_map
            (fun id ->
              match Harness.Experiments.find id with
              | Some e -> e.plan ~scale:!scale
              | None -> [])
            [ "table2"; "fig4"; "fig5"; "fig8"; "fig9" ]
        in
        Harness.Runner.prewarm ~pool plans);
    let files = Harness.Csv.export dir ~scale:!scale in
    List.iter (Printf.printf "wrote %s\n") files
  end
  else begin
    let fmt = Format.std_formatter in
    (* note: the job count is deliberately absent from the banner so that
       output at any --jobs setting is byte-identical *)
    Format.fprintf fmt
      "ILDP DBT evaluation - %d workloads, scale %d@.(workloads: %s)@."
      (List.length Workloads.all) !scale
      (String.concat " " (Harness.Experiments.names ()));
    (match !experiment with
    | Some id -> (
      match
        List.find_opt (fun (sid, _, _) -> sid = id) (specials ())
      with
      | Some (_, _, runner) -> runner fmt
      | None -> (
        match Harness.Experiments.find id with
        | Some e -> run_experiments fmt [ e ] ~scale:!scale
        | None ->
          Format.fprintf fmt "unknown experiment %S; use --list@." id;
          exit 1))
    | None -> run_experiments fmt Harness.Experiments.all ~scale:!scale);
    Format.pp_print_flush fmt ()
  end
