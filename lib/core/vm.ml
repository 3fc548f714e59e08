(* The co-designed VM runtime: interpret/profile -> translate -> execute
   (paper Fig. 1 and Section 3.1).

   The VM owns one architected state (the interpreter's registers + memory,
   shared with the execution engine). Control moves between three modes:

   - interpretation, with trace-start-candidate counters bumped on arrival
     via candidate edges (register-indirect jump targets, backward
     conditional-branch targets, fragment exit targets);
   - superblock formation + translation when a candidate crosses the hot
     threshold (formation itself advances the program, MRET-style);
   - translated-code execution whenever the current PC has a fragment.

   Timing simulation (when a sink is attached) sees only translated-code
   events, and is notified at every mode-switch boundary so it can drain
   its pipeline — exactly the paper's measurement methodology. *)

type kind = Acc | Straight_only

module Acc_engine = Engine.Make (Exec_acc)
module Straight_engine = Engine.Make (Exec_straight)

(* The VM's one engine: the instantiated engine module and its state. The
   tag recovers the backend's own types where a caller needs them
   ([acc_exec], [acc_ctx], [straight_ctx]); everything else is written
   once against {!Engine.S}. *)
type (_, _) tag =
  | T_acc : (Translate.ctx, Exec_acc.regs) tag
  | T_straight : (Straighten.ctx, Exec_straight.regs) tag

type engine =
  | E :
      ('c, 'r) tag
      * (module Engine.S with type ctx = 'c and type regs = 'r)
      * ('c, 'r) Engine.t
      -> engine

(* How a translated-execution segment ended. Recorded just before the
   [boundary] callback fires, so boundary observers (timing models, the
   differential oracle, coverage accounting) can tell what kind of
   mode-switch they are looking at. *)
type seg =
  | Seg_branch of int  (* fragment exit to an untranslated V-PC *)
  | Seg_pal of int  (* CALL_PAL: VM re-enters the interpreter *)
  | Seg_dispatch_miss  (* dispatch-table miss on an indirect target *)
  | Seg_trap_recovered  (* PEI repair: precise state rebuilt, retry next *)
  | Seg_fuel  (* instruction budget ran out mid-fragment *)

type seg_stats = {
  mutable branch_exits : int;
  mutable pal_exits : int;
  mutable dispatch_misses : int;
  mutable trap_recoveries : int;
  mutable fuel_stops : int;
  mutable flushes : int;
  mutable capacity_flushes : int;  (* flushes forced by tcache_max_slots *)
}

type t = {
  cfg : Config.t;
  prog : Alpha.Program.t; (* retained for the snapshot image digest *)
  interp : Alpha.Interp.t;
  eng : engine;
  cost : Cost.t; (* the translator's cost model *)
  counters : (int, int) Hashtbl.t;
  mutable fuel : int;
  mutable interp_insns : int; (* dynamically interpreted V-ISA instructions *)
  mutable superblocks : int;
  segs : seg_stats;
  mutable last_seg : seg option; (* most recent segment end, for observers *)
}

(* Telemetry spans, one per VM phase. Segment-boundary frequency at most
   (never per instruction), and pure load-and-branch while disabled. *)
let sp_translate = Obs.span "translate"
let sp_execute = Obs.span "execute"
let sp_reentry = Obs.span "interp_reentry"
let sp_flush = Obs.span "flush"

(* [create] proper lives below with the snapshot machinery (the [?snapshot]
   path needs the save/restore helpers); this builds the cold state. *)
let create_cold ~cfg ~kind prog =
  let interp = Alpha.Interp.create prog in
  let eng =
    match kind with
    | Acc ->
      E (T_acc, (module Acc_engine),
         Acc_engine.create (Translate.create cfg) interp)
    | Straight_only ->
      E (T_straight, (module Straight_engine),
         Straight_engine.create (Straighten.create cfg) interp)
  in
  let cost = match eng with E (_, (module X), e) -> X.cost e.ctx in
  { cfg; prog; interp; eng; cost; counters = Hashtbl.create 512; fuel = max_int;
    interp_insns = 0; superblocks = 0;
    segs =
      { branch_exits = 0; pal_exits = 0; dispatch_misses = 0;
        trap_recoveries = 0; fuel_stops = 0; flushes = 0;
        capacity_flushes = 0 };
    last_seg = None }

let cost t = t.cost
let is_translated t pc = match t.eng with E (_, _, e) -> Tcache.is_translated e.ix pc
let entry_of t pc = match t.eng with E (_, _, e) -> Tcache.lookup e.ix pc

let n_slots t = match t.eng with E (_, (module X), e) -> X.Tc.n_slots (X.tc e.ctx)

(* The engine's statistics, for either backend. *)
let engine_stats t = match t.eng with E (_, _, e) -> e.stats

let dual_ras t = match t.eng with E (_, _, e) -> e.dras

let translate t sb =
  t.superblocks <- t.superblocks + 1;
  Obs.with_span sp_translate (fun () ->
      match t.eng with E (_, (module X), e) -> X.translate e.ctx t.interp.mem sb)

type outcome = Exit of int | Fault of Alpha.Interp.trap | Out_of_fuel

(* Flush the translation cache and restart profiling — the paper's
   Section 4.1 notes that a Dynamo-style flush lets sub-optimal fragments
   (formed from early-phase paths) be rebuilt. Architected state is
   untouched; the dual-address RAS is cleared because its I-addresses died
   with the cache. Safe only between VM steps (the run loop re-enters
   translated code through fresh lookups). *)
let flush t =
  Obs.with_span sp_flush (fun () ->
      (match t.eng with
      | E (_, (module X), e) ->
        X.flush e.ctx t.interp.mem;
        Machine.Dual_ras.clear e.dras);
      Hashtbl.reset t.counters;
      t.segs.flushes <- t.segs.flushes + 1)

(* Capacity policy (Dynamo-style): a bounded translation cache is flushed
   wholesale the moment a translation pushes it past the configured slot
   budget — every fragment and chain patch dies together and the VM
   rebuilds from the interpreter's profile. Checked after each translation
   (between VM steps, where a flush is safe). *)
let capacity_flush_check t =
  if t.cfg.tcache_max_slots < max_int then begin
    if n_slots t > t.cfg.tcache_max_slots then begin
      t.segs.capacity_flushes <- t.segs.capacity_flushes + 1;
      flush t
    end
  end

(* The dual-address RAS is a hardware structure: it observes calls and
   returns executed by the VM's interpreter too (in the real co-designed VM
   the interpreter itself is translated code whose call/return helpers push
   proper pairs). Pushes use the current translation of the return address
   when one exists. *)
let interp_ras_update t (info : Alpha.Interp.exec_info) =
  match t.cfg.chaining with
  | Config.No_pred | Config.Sw_pred_no_ras -> ()
  | Config.Sw_pred_ras -> (
    let dras = dual_ras t in
    match info.insn with
    | Bsr _ | Jump (Jsr, _, _) ->
      let v_ret = info.xpc + 4 in
      Machine.Dual_ras.push dras ~v_addr:v_ret ~i_addr:(entry_of t v_ret)
    | Br (ra, _) when ra <> 31 ->
      let v_ret = info.xpc + 4 in
      Machine.Dual_ras.push dras ~v_addr:v_ret ~i_addr:(entry_of t v_ret)
    | Jump (Ret, _, _) ->
      ignore (Machine.Dual_ras.pop_verify dras ~v_actual:info.next_pc)
    | _ -> ())

(* Every single V-ISA instruction the VM interprets — in the profiling loop,
   on post-PAL reentry, on post-trap-recovery retry — must go through this
   helper so that cost units, the interpreted-instruction counters, the fuel
   budget and the dual-address RAS advance identically on all three paths.
   (The reentry paths once performed a bare [Alpha.Interp.step] and silently
   drifted from the profiling loop's accounting.) *)
let interp_step_accounted t =
  let r = Alpha.Interp.step t.interp in
  (match r with
  | Alpha.Interp.Step info ->
    (* counted only when the instruction retires, keeping all three
       counters (cost model, [t.interp_insns], the interpreter's own
       [icount]) in exact agreement *)
    Cost.tick_interp (cost t) Cost.interp_step;
    (cost t).interp_insns <- (cost t).interp_insns + 1;
    t.interp_insns <- t.interp_insns + 1;
    t.fuel <- t.fuel - 1;
    interp_ras_update t info
  | Halted _ | Trapped _ -> ());
  r

(* Run the program under the VM. [sink] receives translated-code events;
   [boundary] fires at every translated-execution segment end. *)
let run ?sink ?boundary ?(fuel = max_int) t : outcome =
  t.fuel <- fuel;
  let notify_boundary () = match boundary with Some f -> f () | None -> () in
  (* [candidate] is true when the current interpreter PC was reached through
     a candidate-making edge. *)
  let candidate = ref true (* the program entry is a jump target *) in
  let result = ref None in
  (* Hoisted out of [exec_translated] so the segment-rate dispatch below
     allocates no closure while telemetry is off (the span thunk is only
     built when the switch is on). *)
  let exec_backend entry =
    match t.eng with
    | E (_, (module X), e) ->
      let before = e.stats.alpha_retired in
      let r = X.run ?sink ~fuel:t.fuel e ~entry in
      t.fuel <- t.fuel - (e.stats.alpha_retired - before);
      r
  in
  let exec_translated entry =
    let exit_ =
      if Obs.on () then Obs.with_span sp_execute (fun () -> exec_backend entry)
      else exec_backend entry
    in
    let seg =
      match exit_ with
      | Engine.X_reason (Exitr.R_branch v) ->
        t.segs.branch_exits <- t.segs.branch_exits + 1;
        Seg_branch v
      | X_reason (Exitr.R_pal v) ->
        t.segs.pal_exits <- t.segs.pal_exits + 1;
        Seg_pal v
      | X_reason Exitr.R_dispatch_miss ->
        t.segs.dispatch_misses <- t.segs.dispatch_misses + 1;
        Seg_dispatch_miss
      | X_trap_recovered ->
        t.segs.trap_recoveries <- t.segs.trap_recoveries + 1;
        Seg_trap_recovered
      | X_fuel ->
        t.segs.fuel_stops <- t.segs.fuel_stops + 1;
        Seg_fuel
    in
    t.last_seg <- Some seg;
    notify_boundary ();
    exit_
  in
  let dispatch_target () =
    match t.eng with E (_, (module X), e) -> X.dispatch_target e
  in
  let interp_one () =
    match interp_step_accounted t with
    | Halted c -> result := Some (Exit c)
    | Trapped tr -> result := Some (Fault tr)
    | Step info ->
      candidate :=
        (match info.insn with
        | Jump _ -> true
        | Bc _ | Br _ | Bsr _ -> info.taken && info.next_pc <= info.xpc
        | _ -> false)
  in
  (* Reentry paths (post-PAL, post-trap-recovery) interpret exactly one
     instruction; the next PC is sequential, never a candidate edge. *)
  let reentry_step () = interp_step_accounted t in
  let interp_reentry () =
    match Obs.with_span sp_reentry reentry_step with
    | Halted c -> result := Some (Exit c)
    | Trapped tr -> result := Some (Fault tr)
    | Step _ -> candidate := false
  in
  let running () = match !result with None -> true | Some _ -> false in
  while running () do
    if t.fuel <= 0 then result := Some Out_of_fuel
    else begin
      let pc = t.interp.pc in
      match entry_of t pc with
      | Some entry -> (
        match exec_translated entry with
        | Engine.X_reason (Exitr.R_branch v) ->
          t.interp.pc <- v;
          candidate := true
        | X_reason (Exitr.R_pal v_pc) ->
          t.interp.pc <- v_pc;
          interp_reentry ()
        | X_reason Exitr.R_dispatch_miss ->
          t.interp.pc <- dispatch_target ();
          candidate := true
        | X_trap_recovered ->
          (* re-execute the faulting V-ISA instruction by interpretation;
             it raises the architectural trap with precise state (or, if
             the retry succeeds because state was repaired, continues) *)
          interp_reentry ()
        | X_fuel -> result := Some Out_of_fuel)
      | None ->
        if !candidate then begin
          Cost.tick (cost t) Cost.profile_lookup;
          let c = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counters pc) in
          Hashtbl.replace t.counters pc c;
          if c >= t.cfg.hot_threshold then begin
            let before = t.interp.icount in
            (* formation interprets, so it must not outrun the budget *)
            let sb, stop =
              Superblock.form
                ~on_step:(interp_ras_update t)
                ~interp:t.interp
                ~max_size:(Int.min t.cfg.max_superblock t.fuel)
                ~is_translated:
                  (if t.cfg.stop_at_translated then is_translated t
                   else fun _ -> false)
                ()
            in
            let formed = t.interp.icount - before in
            t.interp_insns <- t.interp_insns + formed;
            t.fuel <- t.fuel - formed;
            Cost.tick_interp (cost t) (formed * Cost.interp_step);
            (cost t).interp_insns <- (cost t).interp_insns + formed;
            (match stop with
            | Superblock.Stop_end when t.fuel <= 0 ->
              (* formation spent the last of the fuel, and may have been
                 cut short by it: a truncated trace is not a superblock *)
              ()
            | Superblock.Stop_end ->
              translate t sb;
              capacity_flush_check t
            | Superblock.Stop_halt c -> result := Some (Exit c)
            | Superblock.Stop_trap tr -> result := Some (Fault tr));
            candidate := true
          end
          else begin
            candidate := false;
            interp_one ()
          end
        end
        else interp_one ()
    end
  done;
  Option.get !result

(* ---------- accessors used by tests and the harness ---------- *)

let output t = Alpha.Interp.output t.interp
let reg_checksum t = Alpha.Interp.reg_checksum t.interp
let memory t = t.interp.mem

let acc_exec t : Acc_engine.t option =
  match t.eng with E (T_acc, _, e) -> Some e | E (T_straight, _, _) -> None

let acc_ctx t = Option.map (fun (e : Acc_engine.t) -> e.ctx) (acc_exec t)

let straight_ctx t : Straighten.ctx option =
  match t.eng with
  | E (T_straight, _, e) -> Some e.ctx
  | E (T_acc, _, _) -> None

(* ---------- telemetry publication ---------- *)

(* The hot paths keep their hand-rolled statistics structs — they are
   what the lockstep oracle's exact-accounting invariants check — and a
   finished run folds them into the registry here, so the telemetry
   export is a view over oracle-validated numbers rather than a second,
   independently drifting set of increments. Call once per completed
   [run]; callers that run a VM several times (repeats) publish each. *)

let c_runs = Obs.counter "vm.runs"
let c_interp_insns = Obs.counter "vm.interp_insns"
let c_superblocks = Obs.counter "vm.superblocks"
let c_seg_branch = Obs.counter "vm.seg.branch_exits"
let c_seg_pal = Obs.counter "vm.seg.pal_exits"
let c_seg_dmiss = Obs.counter "vm.seg.dispatch_misses"
let c_seg_trap = Obs.counter "vm.seg.trap_recoveries"
let c_seg_fuel = Obs.counter "vm.seg.fuel_stops"
let c_flushes = Obs.counter "vm.flushes"
let c_capacity_flushes = Obs.counter "vm.capacity_flushes"
let c_cost_xunits = Obs.counter "cost.translate_units"
let c_cost_iunits = Obs.counter "cost.interp_units"
let c_cost_xinsns = Obs.counter "cost.translated_insns"
let c_cost_iinsns = Obs.counter "cost.interp_insns"
let c_i_exec = Obs.counter "engine.i_exec"
let c_alpha = Obs.counter "engine.alpha_retired"
let c_frag_enters = Obs.counter "engine.frag_enters"
let c_dras_hits = Obs.counter "engine.ret_dras_hits"
let c_dras_misses = Obs.counter "engine.ret_dras_misses"
let c_dras_overflows = Obs.counter "engine.dras_overflows"

let c_class =
  [|
    Obs.counter "engine.class.core";
    Obs.counter "engine.class.copy";
    Obs.counter "engine.class.chain";
    Obs.counter "engine.class.prologue";
  |]

let c_spills = Obs.counter "translate.acc.spills"
let c_splits = Obs.counter "translate.acc.splits"
let c_i_bytes = Obs.counter "tcache.i_bytes"

let publish_obs t =
  if Obs.on () then begin
    Obs.bump c_runs 1;
    Obs.bump c_interp_insns t.interp_insns;
    Obs.bump c_superblocks t.superblocks;
    Obs.bump c_seg_branch t.segs.branch_exits;
    Obs.bump c_seg_pal t.segs.pal_exits;
    Obs.bump c_seg_dmiss t.segs.dispatch_misses;
    Obs.bump c_seg_trap t.segs.trap_recoveries;
    Obs.bump c_seg_fuel t.segs.fuel_stops;
    Obs.bump c_flushes t.segs.flushes;
    Obs.bump c_capacity_flushes t.segs.capacity_flushes;
    let cost = cost t in
    Obs.bump c_cost_xunits cost.Cost.translate_units;
    Obs.bump c_cost_iunits cost.Cost.interp_units;
    Obs.bump c_cost_xinsns cost.Cost.translated_insns;
    Obs.bump c_cost_iinsns cost.Cost.interp_insns;
    let s = engine_stats t in
    Obs.bump c_i_exec s.i_exec;
    Obs.bump c_alpha s.alpha_retired;
    Obs.bump c_frag_enters s.frag_enters;
    Obs.bump c_dras_hits s.ret_dras_hits;
    Obs.bump c_dras_misses s.ret_dras_misses;
    Obs.bump c_dras_overflows (dual_ras t).Machine.Dual_ras.overflows;
    Array.iteri (fun i c -> Obs.bump c_class.(i) c) s.by_class;
    (match acc_ctx t with
    | Some ctx ->
      Obs.bump c_spills ctx.n_spills;
      Obs.bump c_splits ctx.n_splits
    | None -> ());
    match t.eng with
    | E (_, (module X), e) -> Obs.bump c_i_bytes (X.Tc.total_i_bytes (X.tc e.ctx))
  end

(* ---------- persistent snapshots: save / warm start ---------- *)

(* A snapshot (lib/persist) captures the whole translation cache plus the
   per-fragment execution counts. Loading one into a fresh VM restores the
   cache with the generation counter advanced (so the threaded engines
   recompile their closure shadows from the restored slots), rebuilds the
   in-memory dispatch table with the profile's hottest fragments installed
   last (they win the probe-0 collision policy), and optionally pays the
   closure compilation up front. Pending patch closures are deliberately
   not persisted: an unpatched call-translator slot merely exits to the VM,
   which re-dispatches — slower, never wrong. *)

module Vec = Machine.Vec

let c_persist_saves = Obs.counter "persist.saves"
let c_persist_loads = Obs.counter "persist.loads"
let c_persist_slots = Obs.counter "persist.restored_slots"
let c_persist_prewarmed = Obs.counter "persist.prewarmed_frags"

let backend_name t = match t.eng with E (_, (module X), _) -> X.name

(* Hex MD5 over everything that defines the guest image: section bases and
   bytes plus the entry point. Two programs with the same digest produce
   the same superblocks, so a cache keyed on it can never leak fragments
   across workloads. *)
let image_digest (prog : Alpha.Program.t) =
  let b = Buffer.create (String.length prog.text.bytes + 64) in
  Buffer.add_string b (string_of_int prog.text.base);
  Buffer.add_char b '|';
  Buffer.add_string b prog.text.bytes;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int prog.data.base);
  Buffer.add_char b '|';
  Buffer.add_string b prog.data.bytes;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int prog.entry);
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint t =
  Config.fingerprint t.cfg ~backend:(backend_name t)
    ~image_digest:(image_digest t.prog)

let conv_frag (f : Tcache.frag) : Persist.Snapshot.frag =
  { f_id = f.id; f_entry_slot = f.entry_slot; f_v_start = f.v_start;
    f_n_slots = f.n_slots; f_v_insns = f.v_insns; f_v_bytes = f.v_bytes;
    f_i_bytes = f.i_bytes; f_exec_count = f.exec_count;
    f_cat_count = Array.copy f.cat_count }

(* Restored fragments restart execution accounting at zero: the persisted
   count is the *profile* that drove prewarming, not live state. *)
let unconv_frag (f : Persist.Snapshot.frag) : Tcache.frag =
  { id = f.f_id; entry_slot = f.f_entry_slot; v_start = f.f_v_start;
    n_slots = f.f_n_slots; v_insns = f.f_v_insns; v_bytes = f.f_v_bytes;
    i_bytes = f.f_i_bytes; exec_count = 0; cat_count = Array.copy f.f_cat_count }

let conv_exit : Exitr.reason -> Persist.Snapshot.exit_reason = function
  | Exitr.R_branch v -> X_branch v
  | Exitr.R_pal v -> X_pal v
  | Exitr.R_dispatch_miss -> X_dispatch_miss

let unconv_exit : Persist.Snapshot.exit_reason -> Exitr.reason = function
  | X_branch v -> Exitr.R_branch v
  | X_pal v -> Exitr.R_pal v
  | X_dispatch_miss -> Exitr.R_dispatch_miss

let vec_to_array v = Array.init (Vec.length v) (Vec.get v)

let refill_vec v xs =
  Vec.clear v;
  Array.iter (Vec.push v) xs

let save_snapshot t : Persist.Snapshot.t =
  Obs.bump c_persist_saves 1;
  let body =
    match t.eng with
    | E (_, (module X), e) ->
      let ctx = e.ctx in
      let tc = X.tc ctx in
      X.wrap
        {
          slots =
            Array.init (X.Tc.n_slots tc) (fun sl ->
                (X.Tc.get tc sl, X.Tc.starts_strand tc sl));
          frags = Array.of_list (List.map conv_frag (X.Tc.fragments tc));
          peis =
            (* sorted by slot: Hashtbl fold order is not deterministic,
               snapshot bytes must be *)
            Array.of_list
              (List.map
                 (fun (slot, (p : Tcache.pei)) ->
                   { Persist.Snapshot.p_slot = slot; p_v_pc = p.pei_v_pc;
                     p_acc_map = Array.copy p.acc_map })
                 (List.sort
                    (fun (a, _) (b, _) -> Int.compare a b)
                    (X.Tc.pei_list tc)));
          exits = Array.map conv_exit (vec_to_array (X.exits ctx));
          slot_alpha = vec_to_array (X.slot_alpha ctx);
          slot_class = vec_to_array (X.slot_class ctx);
          dispatch_slot = X.dispatch_slot ctx;
          unique_vpcs =
            Array.of_list
              (List.sort Int.compare
                 (Hashtbl.fold (fun k () acc -> k :: acc) (X.unique_vpcs ctx) []));
        }
  in
  { fingerprint = fingerprint t; body }

let reject fmt =
  Printf.ksprintf
    (fun s -> raise (Persist.Snapshot.Error ("snapshot rejected: " ^ s)))
    fmt

(* Structural sanity over a decoded cache before any of it is installed:
   the CRC catches corruption of the bytes, this catches a snapshot that
   decodes cleanly but cannot describe a consistent cache. *)
let check_cache (c : _ Persist.Snapshot.cache) =
  let n = Array.length c.slots in
  if Array.length c.slot_alpha <> n || Array.length c.slot_class <> n then
    reject "per-slot metadata (%d alpha, %d class) does not match %d slots"
      (Array.length c.slot_alpha)
      (Array.length c.slot_class)
      n;
  (* the threaded trampoline indexes its class counters with these
     unchecked, and fuel accounting rests on the credits *)
  Array.iteri
    (fun s cls ->
      if cls < 0 || cls >= Array.length c_class then
        reject "slot %d has class %d outside [0, %d)" s cls
          (Array.length c_class))
    c.slot_class;
  Array.iteri
    (fun s a -> if a < 0 then reject "slot %d has negative credit %d" s a)
    c.slot_alpha;
  Array.iteri
    (fun i (f : Persist.Snapshot.frag) ->
      if f.f_id <> i then reject "fragment ids not dense (%d at index %d)" f.f_id i;
      if f.f_entry_slot < 0 || f.f_entry_slot >= n then
        reject "fragment %d entry slot %d out of range [0, %d)" i f.f_entry_slot n)
    c.frags;
  Array.iter
    (fun (p : Persist.Snapshot.pei) ->
      if p.p_slot < 0 || p.p_slot >= n then
        reject "PEI slot %d out of range [0, %d)" p.p_slot n)
    c.peis;
  if c.dispatch_slot < 0 || c.dispatch_slot >= n then
    reject "dispatch slot %d out of range [0, %d)" c.dispatch_slot n

let restore_peis (c : _ Persist.Snapshot.cache) =
  Array.to_list
    (Array.map
       (fun (p : Persist.Snapshot.pei) ->
         (p.p_slot, { Tcache.pei_v_pc = p.p_v_pc; acc_map = Array.copy p.p_acc_map }))
       c.peis)

(* Rebuild the in-memory dispatch table: every fragment in id order, then
   the [prewarm_top] hottest (by persisted execution count) re-installed in
   ascending hotness, so on probe collisions the hottest entry owns probe 0
   — the profile-guided part of the warm start. Returns how many fragments
   got priority treatment. *)
let reinstall_dispatch t (c : _ Persist.Snapshot.cache) ~prewarm_top =
  let mem = t.interp.mem in
  Machine.Memory.fill_zero mem ~addr:Translate.table_base
    ~len:Translate.table_bytes;
  Array.iter
    (fun (f : Persist.Snapshot.frag) ->
      Translate.dispatch_install mem ~v:f.f_v_start ~slot:f.f_entry_slot)
    c.frags;
  let hot = Array.copy c.frags in
  Array.sort
    (fun (a : Persist.Snapshot.frag) (b : Persist.Snapshot.frag) ->
      compare (b.f_exec_count, a.f_id) (a.f_exec_count, b.f_id))
    hot;
  let n = min prewarm_top (Array.length hot) in
  for i = n - 1 downto 0 do
    let f = hot.(i) in
    Translate.dispatch_install mem ~v:f.f_v_start ~slot:f.f_entry_slot
  done;
  n

let load_snapshot t ~prewarm_top (snap : Persist.Snapshot.t) =
  let want = fingerprint t in
  (match Persist.Snapshot.fingerprint_mismatches ~got:snap.fingerprint ~want with
  | [] -> ()
  | ms -> reject "%s" (String.concat "; " ms));
  let prewarmed, slots =
    match t.eng with
    | E (_, (module X), e) -> (
      match X.unwrap snap.body with
      | None ->
        (* unreachable through [fingerprint_mismatches] unless the file was
           hand-crafted with an inconsistent backend/body pair *)
        reject "body does not match the %s backend" X.name
      | Some c ->
        check_cache c;
        let ctx = e.ctx in
        X.Tc.restore (X.tc ctx) ~code:c.slots
          ~frags:(Array.map unconv_frag c.frags) ~peis:(restore_peis c);
        refill_vec (X.exits ctx) (Array.map unconv_exit c.exits);
        refill_vec (X.slot_alpha ctx) c.slot_alpha;
        refill_vec (X.slot_class ctx) c.slot_class;
        X.set_dispatch_slot ctx c.dispatch_slot;
        let vpcs = X.unique_vpcs ctx in
        Hashtbl.reset vpcs;
        Array.iter (fun v -> Hashtbl.replace vpcs v ()) c.unique_vpcs;
        let n = reinstall_dispatch t c ~prewarm_top in
        (match t.cfg.engine with
        | Config.Threaded -> X.prewarm e
        | Config.Matched -> ());
        (n, Array.length c.slots))
  in
  Obs.bump c_persist_loads 1;
  Obs.bump c_persist_slots slots;
  Obs.bump c_persist_prewarmed prewarmed

(* [prewarm_top] bounds how many fragments get dispatch-table priority on
   a warm start; closure compilation covers every restored slot. *)
let create ?(cfg = Config.default) ?snapshot ?(prewarm_top = 8) ~kind prog =
  let t = create_cold ~cfg ~kind prog in
  (match snapshot with
  | None -> ()
  | Some snap -> load_snapshot t ~prewarm_top snap);
  t
