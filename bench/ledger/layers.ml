(* Per-layer metrics of a traced phase.

   Three sources, none of them new instrumentation in the program: the
   benchmark's own spans around its calls into each layer ([Span]), the
   spans and counters the [Obs] registry already keeps (switched on for
   the traced phase only), and [Gc.quick_stat] deltas. A layer a workload
   does not exercise reads 0 there. README.md maps each metric to the
   end-to-end metric it should move. *)

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

let all =
  [ (* vm (core/vm.ml) *)
    m "vm.create_ms" "ms" "lower";
    m "vm.run_s" "s" "lower";
    m "vm.interp_self_s" "s" "lower";
    m "vm.interp_share" "ratio" "lower";
    m "vm.restore_ms" "ms" "lower";
    (* translate (superblock, translate, tcache) *)
    m "translate.s" "s" "lower";
    m "translate.superblocks" "count" "lower";
    m "translate.units_per_insn" "units/insn" "lower";
    m "tcache.lookup_hit_rate" "ratio" "higher";
    (* exec (exec_acc) *)
    m "exec.s" "s" "lower";
    m "exec.translated_mips" "MIPS" "higher";
    m "exec.compile_closure_s" "s" "lower";
    m "exec.frag_enters_per_kinsn" "1/kinsn" "lower";
    m "exec.seg_exits_per_kinsn" "1/kinsn" "lower";
    (* gc *)
    m "gc.minor_words_per_insn" "words/insn" "lower";
    m "gc.major_collections" "count" "lower";
    (* alpha: the golden interpreter *)
    m "alpha.interp_mips" "MIPS" "higher";
    (* persist *)
    m "persist.save_ms" "ms" "lower";
    m "persist.snapshot_kb" "KiB" "lower";
    (* service *)
    m "service.admit_wait_ms" "ms" "lower";
    m "service.warm_ms" "ms" "lower";
    m "service.cold_ms" "ms" "lower";
    m "service.warm_hit_rate" "ratio" "higher";
    m "service.gen_late_ms" "ms" "lower";
    (* harness, uarch, taskpool *)
    m "harness.prewarm_s" "s" "lower";
    m "harness.render_s" "s" "lower";
    m "harness.run_original_s" "s" "lower";
    m "harness.run_straight_s" "s" "lower";
    m "harness.run_acc_s" "s" "lower";
    m "harness.sim_runs" "count" "lower";
    m "uarch.ooo.insns" "count" "lower";
    m "uarch.ildp.insns" "count" "lower";
    m "taskpool.utilization" "ratio" "higher";
    (* the measurement itself *)
    m "trace_overhead" "ratio" "lower";
    m "trace.self_coverage" "ratio" "higher";
    m "verify_s" "s" "lower" ]

type input = {
  spans : Span.t list;  (* the traced phase, root span "phase" *)
  obs : Obs.snapshot;
  minor_words : float;
  major_collections : int;
  traced : Common.phase;
  untraced : Common.phase;
  probe : (string * float) list;
  verify_s : float;
  interp_mips : float;
}

let ratio a b = if b > 0.0 then a /. b else 0.0

let obs_span (s : Obs.snapshot) name =
  List.fold_left
    (fun a (n, _, secs) -> if n = name then a +. secs else a)
    0.0 s.spans

let counter (s : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (Obs.find s name))

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* The VM's own phase spans, all of which run inside [Vm.run]. *)
let vm_phases = [ "translate"; "execute"; "interp_reentry"; "flush" ]

(* Layer self times of the traced phase, in seconds: each benchmark span's
   self time, except that [vm.run] is split into the VM's phase spans and
   the interpreter's remainder. *)
let self_times i =
  List.concat_map
    (fun (name, (_, _, self)) ->
      match name with
      | "phase" -> []
      | "vm.run" ->
        let parts =
          List.map (fun n -> ("vm." ^ n, obs_span i.obs n)) vm_phases
        in
        parts @ [ ("vm.interp_self", self -. sum snd parts) ]
      | _ -> [ (name, self) ])
    (Span.by_name i.spans)

let compute i =
  let ledger = Span.by_name i.spans in
  let stat name =
    Option.value ~default:(0, 0.0, 0.0) (List.assoc_opt name ledger)
  in
  let calls name = match stat name with n, _, _ -> n in
  let total name = match stat name with _, t, _ -> t in
  let sp = obs_span i.obs and ct = counter i.obs in
  let wall = total "phase" and vm_run = total "vm.run" in
  let interp = ct "vm.interp_insns" and xlated = ct "engine.alpha_retired" in
  let kinsn = (interp +. xlated) /. 1000.0 in
  let seg_exits =
    sum
      (fun n -> ct ("vm.seg." ^ n))
      [ "branch_exits"; "pal_exits"; "dispatch_misses"; "trap_recoveries";
        "fuel_stops" ]
  in
  let runs = [ "original"; "straight"; "acc" ] in
  let hits = ct "tcache.lookup_hits" and misses = ct "tcache.lookup_misses" in
  let values =
    [ ( "vm.create_ms",
        1000.0
        *. ratio (total "vm.create") (float_of_int (calls "vm.create")) );
      ("vm.run_s", vm_run);
      ( "vm.interp_self_s",
        if vm_run > 0.0 then vm_run -. sum sp vm_phases else 0.0 );
      ("vm.interp_share", ratio interp (interp +. xlated));
      ("translate.s", sp "translate");
      ( "translate.superblocks",
        ct "translate.acc.superblocks" +. ct "translate.straight.superblocks" );
      ( "translate.units_per_insn",
        ratio (ct "cost.translate_units") (ct "cost.translated_insns") );
      ("tcache.lookup_hit_rate", ratio hits (hits +. misses));
      ("exec.s", sp "execute");
      ("exec.translated_mips", ratio xlated (sp "execute") /. 1e6);
      ("exec.compile_closure_s", sp "compile_to_closure");
      ("exec.frag_enters_per_kinsn", ratio (ct "engine.frag_enters") kinsn);
      ("exec.seg_exits_per_kinsn", ratio seg_exits kinsn);
      ( "gc.minor_words_per_insn",
        ratio i.minor_words (float_of_int i.traced.retired) );
      ("gc.major_collections", float_of_int i.major_collections);
      ("alpha.interp_mips", i.interp_mips);
      ("harness.prewarm_s", total "runner.prewarm");
      ("harness.render_s", total "experiment.render");
      ("harness.run_original_s", sp "run.original");
      ("harness.run_straight_s", sp "run.straight");
      ("harness.run_acc_s", sp "run.acc");
      ("harness.sim_runs", sum (fun r -> ct ("runner.runs." ^ r)) runs);
      ("uarch.ooo.insns", ct "uarch.ooo.insns");
      ("uarch.ildp.insns", ct "uarch.ildp.insns");
      ( "taskpool.utilization",
        ratio
          (sum (fun r -> sp ("run." ^ r)) runs)
          (wall *. float_of_int Common.nproc) );
      ("trace_overhead", ratio i.untraced.ops_per_s i.traced.ops_per_s -. 1.0);
      ("trace.self_coverage", ratio (sum snd (self_times i)) wall);
      ("verify_s", i.verify_s) ]
    @ i.probe @ i.traced.extra
  in
  List.map
    (fun { name; unit; _ } ->
      (name, unit, Option.value ~default:0.0 (List.assoc_opt name values)))
    all
