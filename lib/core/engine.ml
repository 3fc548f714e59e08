module Vec = Machine.Vec

(* The execution engine for translated code, written once for both
   backends.

   A VM executes one of two translation caches: the accumulator I-ISA
   ({!Exec_acc}) or straightened Alpha ({!Exec_straight}). A backend
   ({!BACKEND}) supplies what differs between the two instruction sets:
   its register state, slot compilation, the matched engine's
   one-instruction step, the event template and the dispatch-miss target.
   Everything else lives here: the engine state and statistics,
   fragment-entry accounting, the fault path, the closure shadow of the
   cache, and the two engines {!Config.t.engine} picks between, for timed
   and untimed runs alike:

   - the {e threaded-code} engine (the default): every cache slot is
     compiled once into a specialized OCaml closure, and [run_threaded] is
     a tight [(Array.unsafe_get ops slot) t] trampoline. With a timing sink
     attached, [run_threaded_sink] emits one {!Machine.Ev.t} per executed
     slot: the slot's template plus the effective address and taken flag
     the op stored in [ev_ea]/[ev_taken];
   - the {e instrumented} engine ([Matched]): the backend's [step]
     interprets one slot per call, with or without a sink. It is the
     reference engine of the differential tests.

   Both engines keep the same statistics, execute the same value functions,
   emit the same events, and are asserted identical by the differential
   tests and the lockstep oracle.

   Precise traps: a memory fault inside a fragment refunds the faulting
   instruction's retirement credit, writes back architected values still
   live in accumulators (the PEI table's accumulator map, always empty on
   the straight backend), sets the interpreter's PC to the V-ISA
   instruction, and reports [X_trap_recovered]; the VM then re-executes
   that instruction by interpretation, which raises the architectural trap
   with fully precise state. *)

type stats = {
  mutable i_exec : int; (* I-ISA instructions executed *)
  by_class : int array; (* per Translate.slot_class *)
  mutable alpha_retired : int; (* V-ISA instructions retired in fragments *)
  mutable frag_enters : int;
  mutable ret_dras_hits : int;
  mutable ret_dras_misses : int;
}

type exit =
  | X_reason of Exitr.reason
  | X_trap_recovered (* interpreter PC set to the faulting V-instruction *)
  | X_fuel

(* Engine state, parameterised by the backend's translator context and
   register state so that compiled closures can name all of it. *)
type ('ctx, 'regs) t = {
  ctx : 'ctx;
  regs : 'regs;
  interp : Alpha.Interp.t; (* shares architected registers and memory *)
  ix : Tcache.index; (* slot addresses and the fragment-entry map *)
  dras : Machine.Dual_ras.t;
  stats : stats;
  (* --- threaded-code engine state --- *)
  mutable ops : ('ctx, 'regs) op array; (* compiled slots [0, ops_len) *)
  mutable alphas : int array; (* per-slot V-ISA retirement, ops-parallel *)
  mutable classes : int array; (* per-slot Translate.slot_class, ops-parallel *)
  mutable ops_len : int;
  mutable ops_gen : int; (* Tcache generation the compiled prefix shadows *)
  mutable patch_mark : int; (* patch-log entries already recompiled *)
  mutable budget : int; (* V-ISA retirement budget of the current run *)
  mutable ev_ea : int; (* effective address of the last load or store *)
  mutable ev_taken : bool; (* the last control slot transferred control *)
  (* [ev_ea]/[ev_taken]: the dynamic event fields an op or a step leaves
     for the sink; sink-less threaded runs store them and never read them *)
  tmpls : Machine.Ev.t Tcache.shadow;
  (* per-slot static part of the slot's timing event, built on the slot's
     first commit under a sink; [Ev.default] until then *)
}

and ('ctx, 'regs) op = ('ctx, 'regs) t -> int

(* Exit protocol of a compiled op and of a matched step: a result >= 0 is
   the next slot; [ret_fault] reports a memory fault at the executing slot
   (the engine then runs the PEI repair); [ret_exit id] names an entry of
   the context's exit table. *)
let ret_fault = -1
let ret_exit exit_id = -(exit_id + 2)

let addr_mask = 0x3fffffffffff

(* Single source of truth for fragment-entry accounting. *)
let enter_fragment t (f : Tcache.frag) =
  f.exec_count <- f.exec_count + 1;
  t.stats.frag_enters <- t.stats.frag_enters + 1

(* Fragment-entry accounting for a dynamic (register-valued) transfer
   target: O(1) probe of the cache's slot-indexed entry map. *)
let enter_dynamic t target =
  let id = Tcache.frag_id_at t.ix target in
  if id >= 0 then enter_fragment t (Tcache.frag_at t.ix id)

(* Dynamic transfer targets are validated here, so no target can pass for
   an exit sentinel and the trampoline's unchecked [ops] indexing stays
   safe: a run starts with every slot compiled, and the cache does not
   change while translated code runs. Static targets are validated at
   compile time. *)
let check_slot t n =
  if n < 0 || n >= Vec.length t.ix.addr then
    invalid_arg "engine: indirect transfer to an invalid slot";
  n

let check_static t ~slot target =
  if target < 0 || target >= Vec.length t.ix.addr then
    invalid_arg
      (Printf.sprintf "engine: slot %d branches to invalid slot %d" slot target)

(* Telemetry, registered once for both backends: a VM owns one engine, so
   the registry aggregates whichever backend ran. *)
let c_compiles = Obs.counter "engine.compiled_slots"
let c_replays = Obs.counter "engine.patch_replays"
let sp_compile = Obs.span "compile_to_closure"

module type BACKEND = sig
  type insn
  type ctx (* the translator's context *)
  type regs (* register state beyond the shared architected file *)

  module Tc : Tcache.S with type insn = insn

  val name : string (* the snapshot fingerprint's backend name *)

  (* The translator side, which the VM drives. *)
  val tc : ctx -> Tc.t
  val cfg : ctx -> Config.t
  val exits : ctx -> Exitr.reason Vec.t
  val slot_alpha : ctx -> int Vec.t
  val slot_class : ctx -> int Vec.t
  val cost : ctx -> Cost.t
  val unique_vpcs : ctx -> (int, unit) Hashtbl.t
  val dispatch_slot : ctx -> int
  val set_dispatch_slot : ctx -> int -> unit
  val translate : ctx -> Machine.Memory.t -> Superblock.t -> unit
  val flush : ctx -> Machine.Memory.t -> unit
  val wrap : insn Persist.Snapshot.cache -> Persist.Snapshot.body
  val unwrap : Persist.Snapshot.body -> insn Persist.Snapshot.cache option

  (* The execution side. *)
  val regs : unit -> regs

  val accs : regs -> int64 array
  (* the accumulators PEI maps index; empty on a backend without them *)

  val compile : (ctx, regs) t -> int -> (ctx, regs) op
  (* Compile one slot. Runs after translation of the current superblock is
     complete, so every static branch target exists and the entry status
     of every existing slot is final; patches and flushes trigger
     recompilation through the patch log and the generation counter. *)

  val step : (ctx, regs) t -> int -> int
  (* Interpret one slot (the matched engine); same exit protocol as an op.
     A memory fault may also surface as [Machine.Memory.Fault]. *)

  val tmpl : ctx -> int -> Machine.Ev.t
  (* the static part of a slot's timing event *)

  val dispatch_target : (ctx, regs) t -> int
  (* the dynamic V-address a dispatch miss leaves for the VM *)
end

module Make (B : BACKEND) = struct
  include B

  type nonrec t = (ctx, regs) t

  let create ctx interp : t =
    Translate.map_vm_memory interp.Alpha.Interp.mem;
    {
      ctx;
      regs = B.regs ();
      interp;
      ix = Tc.index (tc ctx);
      dras = Machine.Dual_ras.create ();
      stats =
        { i_exec = 0; by_class = Array.make 4 0; alpha_retired = 0;
          frag_enters = 0; ret_dras_hits = 0; ret_dras_misses = 0 };
      ops = [||]; alphas = [||]; classes = [||];
      ops_len = 0; ops_gen = -1; patch_mark = 0;
      budget = 0; ev_ea = 0; ev_taken = false;
      tmpls = Tcache.shadow Machine.Ev.default;
    }

  (* The fault cold path. The faulting V-ISA instruction does not commit
     here — the VM re-executes it by interpretation — so take back the one
     retirement credit its slot claimed for it (credits for earlier
     straightened-away instructions folded into the same slot did commit
     and stay counted). *)
  let fault t s =
    t.stats.alpha_retired <- t.stats.alpha_retired - 1;
    t.budget <- t.budget + 1;
    match Tc.pei_at (tc t.ctx) s with
    | Some pei ->
      let accs = accs t.regs in
      Array.iter
        (fun (a, r) -> Alpha.Interp.set t.interp r accs.(a))
        pei.Tcache.acc_map;
      t.interp.pc <- pei.pei_v_pc;
      X_trap_recovered
    | None -> failwith "engine: fault at a slot with no PEI entry"

  (* The exit a negative result of slot [s] stands for. *)
  let exit_of t s n =
    if n = ret_fault then fault t s else X_reason (Vec.get (exits t.ctx) (-n - 2))

  let uncompiled_op : (ctx, regs) op =
   fun _ -> failwith "engine: uncompiled slot"

  (* Lazily (re)build the compiled-op shadow of the translation cache:
     reset on cache flush (generation bump), compile newly pushed slots,
     then recompile every slot patched since the last sync (chaining
     patches rewrite call-translator slots into direct branches). *)
  let sync_ops t =
    let tc = tc t.ctx in
    let gen = Tc.generation tc in
    if t.ops_gen <> gen then begin
      t.ops <- [||];
      t.ops_len <- 0;
      t.patch_mark <- 0;
      t.ops_gen <- gen
    end;
    let n = Tc.n_slots tc in
    if n > Array.length t.ops then begin
      let cap = ref (Int.max 1024 (Array.length t.ops)) in
      while !cap < n do
        cap := !cap * 2
      done;
      let grow a x =
        let g = Array.make !cap x in
        Array.blit a 0 g 0 t.ops_len;
        g
      in
      t.ops <- grow t.ops uncompiled_op;
      t.alphas <- grow t.alphas 0;
      t.classes <- grow t.classes 0
    end;
    (* compile fresh slots first so late patches to them recompile below *)
    let m = Tc.patch_count tc in
    if n > t.ops_len || m > t.patch_mark then
      Obs.with_span sp_compile (fun () ->
          Obs.bump c_compiles (n - t.ops_len);
          let alpha = slot_alpha t.ctx and cls = slot_class t.ctx in
          for sl = t.ops_len to n - 1 do
            Array.unsafe_set t.ops sl (compile t sl);
            Array.unsafe_set t.alphas sl (Vec.get alpha sl);
            Array.unsafe_set t.classes sl (Vec.get cls sl)
          done;
          t.ops_len <- n;
          for i = t.patch_mark to m - 1 do
            let sl = Tc.patched_slot tc i in
            if sl < n then begin
              t.ops.(sl) <- compile t sl;
              Obs.bump c_replays 1
            end
          done;
          t.patch_mark <- m)

  (* Warm start: pay closure compilation for every restored cache slot up
     front instead of on the first [run] after a snapshot load. *)
  let prewarm t = sync_ops t

  let start_threaded t ~fuel ~entry =
    sync_ops t;
    if entry < 0 || entry >= t.ops_len then
      invalid_arg "engine: entry is not a translated slot";
    t.budget <- fuel;
    enter_dynamic t entry

  (* Threaded-code trampoline. Statistics and the budget decrement happen
     here, before the op runs (the fault path refunds the faulting
     instruction's credit). The budget check mirrors the instrumented
     engine's ordering: an exit taken on the very slot that exhausts the
     budget wins over [X_fuel]. *)
  let run_threaded ?(fuel = max_int) t ~entry : exit =
    start_threaded t ~fuel ~entry;
    let ops = t.ops and alphas = t.alphas and classes = t.classes in
    let st = t.stats in
    let by_class = st.by_class in
    let rec loop slot =
      st.i_exec <- st.i_exec + 1;
      let cls = Array.unsafe_get classes slot in
      Array.unsafe_set by_class cls (Array.unsafe_get by_class cls + 1);
      let a = Array.unsafe_get alphas slot in
      st.alpha_retired <- st.alpha_retired + a;
      t.budget <- t.budget - a;
      let n = (Array.unsafe_get ops slot) t in
      if n >= 0 then if t.budget <= 0 then X_fuel else loop n
      else exit_of t slot n
    in
    loop entry

  (* The static part of slot [s]'s event, built on its first commit. *)
  let tmpl_of t s =
    let cells = t.tmpls.cells in
    let tm = cells.(s) in
    if tm != t.tmpls.empty then tm
    else begin
      let tm = tmpl t.ctx s in
      cells.(s) <- tm;
      tm
    end

  (* Slot [s]'s event, after the slot ran and returned [n]: an exit or
     fault sentinel reports the fall-through address as its target. *)
  let emit sink t s n =
    let (tm : Machine.Ev.t) = tmpl_of t s in
    sink
      {
        tm with
        ea = t.ev_ea;
        taken = t.ev_taken;
        target = (if n >= 0 then Tcache.addr_at t.ix n else tm.pc + 4);
      }

  (* [run_threaded] with a timing sink: the same accounting, fuel and exit
     tests, plus one event per executed slot, emitted after its op as the
     instrumented engine does. *)
  let run_threaded_sink ~sink ?(fuel = max_int) t ~entry : exit =
    start_threaded t ~fuel ~entry;
    (* the cache does not change while this loop runs *)
    Tc.sync_shadow (tc t.ctx) t.tmpls;
    let ops = t.ops and alphas = t.alphas and classes = t.classes in
    let st = t.stats in
    let by_class = st.by_class in
    let rec loop slot =
      st.i_exec <- st.i_exec + 1;
      let cls = Array.unsafe_get classes slot in
      Array.unsafe_set by_class cls (Array.unsafe_get by_class cls + 1);
      let a = Array.unsafe_get alphas slot in
      st.alpha_retired <- st.alpha_retired + a;
      t.budget <- t.budget - a;
      t.ev_ea <- 0;
      t.ev_taken <- false;
      let n = (Array.unsafe_get ops slot) t in
      if n >= 0 then begin
        emit sink t slot n;
        if t.budget <= 0 then X_fuel else loop n
      end
      else begin
        (* the fault path's refund and repair precede the event *)
        let x = exit_of t slot n in
        emit sink t slot n;
        x
      end
    in
    loop entry

  (* The instrumented (match-based) engine: execute from [entry] (a slot)
     until a VM exit. [fuel] bounds the number of V-ISA instructions
     retired. *)
  let run_instrumented ?sink ?(fuel = max_int) t ~entry : exit =
    let alphas = slot_alpha t.ctx and classes = slot_class t.ctx in
    (* the cache does not change while this loop runs *)
    if Option.is_some sink then Tc.sync_shadow (tc t.ctx) t.tmpls;
    t.budget <- fuel;
    enter_dynamic t entry;
    let st = t.stats in
    let emit_opt s n = match sink with Some f -> emit f t s n | None -> () in
    let rec loop s =
      let a = Vec.get alphas s and cls = Vec.get classes s in
      st.i_exec <- st.i_exec + 1;
      st.by_class.(cls) <- st.by_class.(cls) + 1;
      st.alpha_retired <- st.alpha_retired + a;
      t.budget <- t.budget - a;
      t.ev_ea <- 0;
      t.ev_taken <- false;
      let n = try step t s with Machine.Memory.Fault _ -> ret_fault in
      if n >= 0 then begin
        (* fragment-entry accounting for chained transfers *)
        if t.ev_taken then enter_dynamic t n;
        emit_opt s n;
        if t.budget <= 0 then X_fuel else loop n
      end
      else begin
        let x = exit_of t s n in
        emit_opt s n;
        x
      end
    in
    loop entry

  (* The configured engine runs timed and untimed execution alike; both
     emit the same events under a sink. *)
  let run ?sink ?(fuel = max_int) t ~entry : exit =
    match (cfg t.ctx).engine with
    | Config.Threaded -> (
      match sink with
      | None -> run_threaded ~fuel t ~entry
      | Some sink -> run_threaded_sink ~sink ~fuel t ~entry)
    | Config.Matched -> run_instrumented ?sink ~fuel t ~entry
end

(* What the VM sees of an instantiated engine. *)
module type S = sig
  include BACKEND

  type nonrec t = (ctx, regs) t

  val create : ctx -> Alpha.Interp.t -> t
  val prewarm : t -> unit

  val run :
    ?sink:(Machine.Ev.t -> unit) -> ?fuel:int -> t -> entry:int -> exit
end
