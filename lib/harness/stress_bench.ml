(* Adversarial stress benchmark: the three {!Stress} arms run against the
   DBT under configurations chosen to let each arm hit its target, and
   the row records translator-health telemetry proving it did:

   - flush-storm runs under the threaded engine with a small
     translation-cache bound — so phase migration drives the cache past
     capacity repeatedly (capacity_flushes);
   - megamorphic runs under the threaded engine — its ever-changing
     indirect-jump targets defeat software target prediction, ballooning
     the chain-class instruction share and dispatch misses versus the
     gzip reference row measured under the identical configuration;
   - call-tower runs under the threaded engine — towers 16–24 deep
     against the 8-entry dual RAS overflow the stack every iteration
     (dras_overflows) and drag the return hit rate far below gzip's.

   Every run is differentially verified against the golden Alpha
   interpreter (outcome, console output, full register checksum), so the
   stressors prove robustness, not just survival. Counters are
   deterministic; the stress run exits 1 unless every target is hit. *)

type row = {
  s_name : string;
  s_retired : int;
  s_slots : int;  (* I-ISA slots live in the translation cache at exit *)
  s_flushes : int;
  s_capacity_flushes : int;
  s_dispatch_misses : int;
  s_chain_share : float;  (* chain-class I-ISA instructions / i_exec *)
  s_dras_hits : int;
  s_dras_misses : int;
  s_dras_overflows : int;
  s_dras_hit_rate : float;
  s_mismatches : string list;  (* vs the golden interpreter *)
}

let default_fuel = 100_000_000

(* Fixed generator seed: the bench measures the translator under a known
   adversary, not generator variance (ildp_fuzz --stress covers that). *)
let gen_seed = 7

(* Translation-cache bound for the flush-storm row: small enough that a
   few phase migrations overflow it, large enough to hold any single
   phase's fragments (so forward progress is never starved). *)
let flush_cap = 128

let hot_threshold = 10

type spec = {
  prog : Alpha.Program.t;
  cfg : Core.Config.t;
}

let arm_spec arm ~scale =
  let iters = 256 * max 1 scale in
  let prog = Oracle.Gen.assemble (Stress.single ~iters arm ~seed:gen_seed) in
  let cfg =
    match arm with
    | Stress.Flush_storm ->
      { Core.Config.default with
        engine = Core.Config.Threaded; hot_threshold;
        tcache_max_slots = flush_cap }
    | Stress.Megamorphic | Stress.Call_tower ->
      { Core.Config.default with engine = Core.Config.Threaded; hot_threshold }
  in
  { prog; cfg }

(* gzip under the megamorphic/call-tower configuration: the well-behaved
   reference whose chain share and RAS hit rate the stressors must beat. *)
let reference_spec ~scale =
  let w = List.find (fun (w : Workloads.t) -> w.name = "gzip") Workloads.all in
  { prog = Workloads.program ~scale w;
    cfg =
      { Core.Config.default with engine = Core.Config.Threaded; hot_threshold } }

let run_spec ~name ~fuel { prog; cfg } =
  let golden = Alpha.Interp.create prog in
  let golden_outcome =
    match Alpha.Interp.run ~fuel golden with
    | Alpha.Interp.Exit c -> Printf.sprintf "exit:%d" c
    | Alpha.Interp.Fault tr ->
      Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
    | Alpha.Interp.Out_of_fuel -> "fuel"
  in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  let outcome = Runner.outcome_string (Core.Vm.run ~fuel vm) in
  let ms = ref [] in
  if outcome <> golden_outcome then
    ms := Printf.sprintf "outcome %s vs golden %s" outcome golden_outcome :: !ms;
  if Core.Vm.output vm <> Alpha.Interp.output golden then
    ms := "console output differs from golden" :: !ms;
  if Core.Vm.reg_checksum vm <> Alpha.Interp.reg_checksum golden then
    ms := "register checksum differs from golden" :: !ms;
  let st = Core.Vm.engine_stats vm in
  let dras = Core.Vm.dual_ras vm in
  let segs = vm.Core.Vm.segs in
  {
    s_name = name;
    s_retired = st.alpha_retired + vm.interp_insns;
    s_slots = Core.Vm.n_slots vm;
    s_flushes = segs.flushes;
    s_capacity_flushes = segs.capacity_flushes;
    s_dispatch_misses = segs.dispatch_misses;
    s_chain_share =
      float_of_int st.by_class.(2) /. float_of_int (max 1 st.i_exec);
    s_dras_hits = st.ret_dras_hits;
    s_dras_misses = st.ret_dras_misses;
    s_dras_overflows = dras.Machine.Dual_ras.overflows;
    s_dras_hit_rate =
      (let total = st.ret_dras_hits + st.ret_dras_misses in
       if total = 0 then 0.0
       else float_of_int st.ret_dras_hits /. float_of_int total);
    s_mismatches = List.rev !ms;
  }

type sweep_result = {
  arms : row list;  (* flush-storm, megamorphic, call-tower *)
  reference : row;  (* gzip, same config as the threaded-engine arms *)
}

let sweep ?(scale = 1) ?(fuel = default_fuel) () =
  let arms =
    List.map
      (fun arm ->
        run_spec ~name:(Stress.arm_name arm) ~fuel (arm_spec arm ~scale))
      Stress.all_arms
  in
  let reference = run_spec ~name:"gzip" ~fuel (reference_spec ~scale) in
  { arms; reference }

let find_arm s name = List.find (fun r -> r.s_name = name) s.arms

(* Each arm's structural target: the stressor must demonstrably hit the
   mechanism it aims at, not merely terminate correctly. *)
let target_met s = function
  | Stress.Flush_storm ->
    let r = find_arm s "flush-storm" in
    r.s_capacity_flushes > 0
  | Stress.Megamorphic ->
    let r = find_arm s "megamorphic" in
    r.s_chain_share >= 4.0 *. s.reference.s_chain_share
    && r.s_chain_share >= 0.25
    && r.s_dispatch_misses > s.reference.s_dispatch_misses
  | Stress.Call_tower ->
    (* absolute bound: a call-balanced reference may execute no hot
       returns at all, making a relative comparison vacuous *)
    let r = find_arm s "call-tower" in
    r.s_dras_overflows > 0
    && r.s_dras_hits + r.s_dras_misses > 0
    && r.s_dras_hit_rate < 0.75

let all_targets_met s = List.for_all (target_met s) Stress.all_arms

let render fmt s =
  Format.fprintf fmt
    "Adversarial stress (telemetry vs the gzip reference, \
     interpreter-verified)@.";
  Format.fprintf fmt "%-12s %9s %6s %6s %6s %8s %9s %7s  %s@." "arm" "retired"
    "slots" "flush" "capfl" "chain%" "overflow" "ras%" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %9d %6d %6d %6d %7.1f%% %9d %6.1f%%  %s@."
        r.s_name r.s_retired r.s_slots r.s_flushes r.s_capacity_flushes
        (100.0 *. r.s_chain_share)
        r.s_dras_overflows
        (100.0 *. r.s_dras_hit_rate)
        (if r.s_mismatches = [] then "ok"
         else String.concat "; " r.s_mismatches))
    (s.arms @ [ s.reference ]);
  List.iter
    (fun arm ->
      Format.fprintf fmt "target %-12s %s@." (Stress.arm_name arm)
        (if target_met s arm then "hit" else "MISSED"))
    Stress.all_arms
