(* Cold-vs-warm start benchmark for persistent translation-cache
   snapshots.

   Each workload runs twice: cold (empty cache, the usual
   interpret/profile/translate ramp) and warm (a VM built from the cold
   run's snapshot, pushed through the full byte encoding so the codec and
   CRC are on the measured path). The two runs must finish in identical
   architected state — output, register checksum, outcome — and the warm
   run must form zero new superblocks: deterministic replay means the
   restored cache already covers every hot path.

   The headline metric is the translation-phase reduction measured in the
   deterministic DBT cost model (translate units spent warm vs cold), so
   the console report is byte-identical across hosts. Every warm run must
   spend fewer translate units than its cold run. *)

type run_out = {
  outcome : string;
  output : string;
  checksum : int64;
  superblocks : int;
  translate_units : int;
}

let default_fuel = 100_000_000

let run_vm ?snapshot ~fuel ~prog () =
  let vm = Core.Vm.create ?snapshot ~kind:Core.Vm.Acc prog in
  let outcome = Core.Vm.run ~fuel vm in
  Core.Vm.publish_obs vm;
  ( vm,
    {
      outcome = Runner.outcome_string outcome;
      output = Core.Vm.output vm;
      checksum = Core.Vm.reg_checksum vm;
      superblocks = vm.superblocks;
      translate_units = (Core.Vm.cost vm).Core.Cost.translate_units;
    } )

type row = {
  name : string;
  snapshot_bytes : int;
  frags : int;
  cold : run_out;
  warm : run_out;
  mismatches : string list;
}

(* Fraction of cold-start translation-phase work the warm start avoided,
   in deterministic cost-model units. *)
let reduction r =
  if r.cold.translate_units <= 0 then 0.0
  else
    1.0
    -. (float_of_int r.warm.translate_units
       /. float_of_int r.cold.translate_units)

let verify ~(cold : run_out) ~(warm : run_out) =
  let ms = ref [] in
  let chk name got want =
    if got <> want then ms := Printf.sprintf "%s: %s vs %s" name got want :: !ms
  in
  chk "outcome" warm.outcome cold.outcome;
  chk "output" warm.output cold.output;
  chk "reg_checksum"
    (Printf.sprintf "%#Lx" warm.checksum)
    (Printf.sprintf "%#Lx" cold.checksum);
  (* deterministic replay: the restored cache already holds every hot
     path, so a warm run may never form a superblock *)
  if warm.superblocks <> 0 then
    ms := Printf.sprintf "warm run formed %d superblocks" warm.superblocks :: !ms;
  if warm.translate_units >= cold.translate_units then
    ms :=
      Printf.sprintf "no translation-phase reduction (%d warm vs %d cold)"
        warm.translate_units cold.translate_units
      :: !ms;
  List.rev !ms

let run_workload ?(scale = 1) ?(fuel = default_fuel) (w : Workloads.t) =
  let prog = Workloads.program ~scale w in
  let cold_vm, cold = run_vm ~fuel ~prog () in
  let bytes = Persist.Snapshot.to_string (Core.Vm.save_snapshot cold_vm) in
  let loaded = Persist.Snapshot.of_string bytes in
  let frags =
    match loaded.Persist.Snapshot.body with
    | Persist.Snapshot.B_acc c -> Array.length c.frags
    | Persist.Snapshot.B_straight c -> Array.length c.frags
  in
  let _, warm = run_vm ~snapshot:loaded ~fuel ~prog () in
  {
    name = w.name;
    snapshot_bytes = String.length bytes;
    frags;
    cold;
    warm;
    mismatches = verify ~cold ~warm;
  }

let sweep ?(scale = 1) ?(fuel = default_fuel) () =
  List.map (run_workload ~scale ~fuel) Workloads.all

let render fmt rows =
  Format.fprintf fmt
    "Persistent-snapshot warm start (cost-model translate units)@.";
  Format.fprintf fmt "%-12s %9s %6s %11s %11s %10s  %s@." "workload"
    "snapKB" "frags" "cold_xunit" "warm_xunit" "reduction" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %9.1f %6d %11d %11d %9.1f%%  %s@." r.name
        (float_of_int r.snapshot_bytes /. 1024.0)
        r.frags r.cold.translate_units r.warm.translate_units
        (100.0 *. reduction r)
        (match r.mismatches with
        | [] -> "ok"
        | ms -> String.concat "; " ms))
    rows;
  let mean =
    List.fold_left (fun a r -> a +. reduction r) 0.0 rows
    /. float_of_int (max 1 (List.length rows))
  in
  Format.fprintf fmt "%-12s %9s %6s %11s %11s %9.1f%%@." "mean" "" "" "" ""
    (100.0 *. mean);
  mean
