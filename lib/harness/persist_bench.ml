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
   the console report is byte-identical across hosts; wall-clock seconds
   for both runs ride along in the JSON export only. *)

type run_out = {
  outcome : string;
  output : string;
  checksum : int64;
  superblocks : int;
  interp_insns : int;
  translate_units : int;
  secs : float;
}

let default_fuel = 100_000_000

let run_vm ?snapshot ~fuel ~prog () =
  let vm = Core.Vm.create ?snapshot ~kind:Core.Vm.Acc prog in
  let t0 = Unix.gettimeofday () in
  let outcome = Core.Vm.run ~fuel vm in
  let secs = Unix.gettimeofday () -. t0 in
  Core.Vm.publish_obs vm;
  ( vm,
    {
      outcome =
        (match outcome with
        | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
        | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
        | Core.Vm.Out_of_fuel -> "fuel");
      output = Core.Vm.output vm;
      checksum = Core.Vm.reg_checksum vm;
      superblocks = vm.superblocks;
      interp_insns = vm.interp_insns;
      translate_units = (Core.Vm.cost vm).Core.Cost.translate_units;
      secs;
    } )

type row = {
  name : string;
  fingerprint : Persist.Snapshot.fingerprint;
  snapshot_bytes : int;
  frags : int;
  slots : int;
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
  if cold.superblocks > 0 && warm.translate_units >= cold.translate_units then
    ms :=
      Printf.sprintf "no translation-phase reduction (%d warm vs %d cold)"
        warm.translate_units cold.translate_units
      :: !ms;
  List.rev !ms

(* [ext_snapshot]: snapshot bytes saved by an earlier process
   (bench --load-cache), used instead of this run's own encoding for the
   matching workload — a cross-process roundtrip on the measured path. *)
let run_workload ?(scale = 1) ?(fuel = default_fuel) ?ext_snapshot
    (w : Workloads.t) =
  let prog = Workloads.program ~scale w in
  let cold_vm, cold = run_vm ~fuel ~prog () in
  let snap = Core.Vm.save_snapshot cold_vm in
  let bytes = Persist.Snapshot.to_string snap in
  let loaded =
    match ext_snapshot with
    | Some s -> Persist.Snapshot.of_string s
    | None -> Persist.Snapshot.of_string bytes
  in
  let frags, slots =
    match loaded.Persist.Snapshot.body with
    | Persist.Snapshot.B_acc c ->
      (Array.length c.frags, Array.length c.slots)
    | Persist.Snapshot.B_straight c ->
      (Array.length c.frags, Array.length c.slots)
  in
  let _, warm = run_vm ~snapshot:loaded ~fuel ~prog () in
  ( {
      name = w.name;
      fingerprint = loaded.Persist.Snapshot.fingerprint;
      snapshot_bytes = String.length bytes;
      frags;
      slots;
      cold;
      warm;
      mismatches = verify ~cold ~warm;
    },
    bytes )

let sweep ?(scale = 1) ?(fuel = default_fuel) ?load_cache () =
  let ext =
    Option.map
      (fun path ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s)
      load_cache
  in
  let first_bytes = ref None in
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        (* an external snapshot can only match one workload's image digest;
           apply it to the first (the one --save-cache writes) *)
        let ext_snapshot =
          match (ext, Workloads.all) with
          | Some s, w0 :: _ when w0.name = w.name -> Some s
          | _ -> None
        in
        let row, bytes = run_workload ~scale ~fuel ?ext_snapshot w in
        if !first_bytes = None then first_bytes := Some bytes;
        row)
      Workloads.all
  in
  (rows, Option.get !first_bytes)

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

let schema = "ildp-dbt-persist/1"

let json_of_fp (fp : Persist.Snapshot.fingerprint) =
  let module J = Obs.Json in
  J.Obj
    [ ("backend", J.String fp.fp_backend);
      ("isa", J.String fp.fp_isa);
      ("chaining", J.String fp.fp_chaining);
      ("engine", J.String fp.fp_engine);
      ("n_accs", J.Int fp.fp_n_accs);
      ("hot_threshold", J.Int fp.fp_hot_threshold);
      ("max_superblock", J.Int fp.fp_max_superblock);
      ("stop_at_translated", J.Bool fp.fp_stop_at_translated);
      ("fuse_mem", J.Bool fp.fp_fuse_mem);
      ("tcache_max_slots", J.Int fp.fp_tcache_max_slots);
      ("image_digest", J.String fp.fp_image_digest) ]

(* Inverse of {!json_of_fp}, used by the roundtrip tests: the JSON view of
   a fingerprint must survive print/parse exactly. *)
let fp_of_json doc =
  let module J = Obs.Json in
  let ( let* ) = Option.bind in
  let* fp_backend = Option.bind (J.member "backend" doc) J.to_str in
  let* fp_isa = Option.bind (J.member "isa" doc) J.to_str in
  let* fp_chaining = Option.bind (J.member "chaining" doc) J.to_str in
  let* fp_engine = Option.bind (J.member "engine" doc) J.to_str in
  let* fp_n_accs = Option.bind (J.member "n_accs" doc) J.to_int in
  let* fp_hot_threshold = Option.bind (J.member "hot_threshold" doc) J.to_int in
  let* fp_max_superblock =
    Option.bind (J.member "max_superblock" doc) J.to_int
  in
  let* fp_stop_at_translated =
    Option.bind (J.member "stop_at_translated" doc) J.to_bool
  in
  let* fp_fuse_mem = Option.bind (J.member "fuse_mem" doc) J.to_bool in
  let* fp_tcache_max_slots =
    Option.bind (J.member "tcache_max_slots" doc) J.to_int
  in
  let* fp_image_digest = Option.bind (J.member "image_digest" doc) J.to_str in
  Some
    {
      Persist.Snapshot.fp_backend;
      fp_isa;
      fp_chaining;
      fp_engine;
      fp_n_accs;
      fp_hot_threshold;
      fp_max_superblock;
      fp_stop_at_translated;
      fp_fuse_mem;
      fp_tcache_max_slots;
      fp_image_digest;
    }

let json_of_row r =
  let module J = Obs.Json in
  J.Obj
    [ ("name", J.String r.name);
      ("fingerprint", json_of_fp r.fingerprint);
      ("snapshot_bytes", J.Int r.snapshot_bytes);
      ("frags", J.Int r.frags);
      ("slots", J.Int r.slots);
      ("cold_outcome", J.String r.cold.outcome);
      ("cold_superblocks", J.Int r.cold.superblocks);
      ("cold_interp_insns", J.Int r.cold.interp_insns);
      ("cold_translate_units", J.Int r.cold.translate_units);
      ("cold_secs", J.Float r.cold.secs);
      ("warm_superblocks", J.Int r.warm.superblocks);
      ("warm_interp_insns", J.Int r.warm.interp_insns);
      ("warm_translate_units", J.Int r.warm.translate_units);
      ("warm_secs", J.Float r.warm.secs);
      ("translate_reduction", J.Float (reduction r));
      ("verified", J.Bool (r.mismatches = [])) ]

let to_json ~jobs ~scale ~fuel rows =
  let module J = Obs.Json in
  let mean =
    List.fold_left (fun a r -> a +. reduction r) 0.0 rows
    /. float_of_int (max 1 (List.length rows))
  in
  Obs.Envelope.wrap ~schema ~jobs
    [ ("scale", J.Int scale);
      ("fuel", J.Int fuel);
      ("workloads", J.List (List.map json_of_row rows));
      ("mean_translate_reduction", J.Float mean) ]

let write_json path ~jobs ~scale ~fuel rows =
  Obs.Json.write_file path (to_json ~jobs ~scale ~fuel rows)
