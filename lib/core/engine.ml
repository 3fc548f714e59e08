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

   Both engines keep the same statistics, compute the same values, emit the
   same events, and are asserted identical by the differential tests and the
   lockstep oracle. The matched step evaluates operators with
   {!Alpha.Insn.eval_op}, the golden interpreter's semantics; the compiled
   closures use this module's inlined copy ({!eval}, {!holds}), which a
   property test holds equal to it on every operator.

   Guest state is unboxed. Registers are 8-byte cells of a [Bytes.t] (the
   interpreter's architected file, and the acc backend's accumulators and
   VM scratch registers), and a compiled closure computes on [int64] from
   operand cells to result cell without allocating. The closures that need
   the evaluator are built here, in one module: dune's default (dev)
   profile compiles the library [-opaque], so nothing is inlined across
   modules, and an evaluator called in another module would box its
   [int64] result.

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

(* ---------- cell-shaped slot closures, for both backends ----------

   A backend compiles a slot by resolving its operands to cells and calling
   one of the builders below. A cell is one register: a [Bytes.t] and the
   byte offset of its 8 native-endian bytes. The backends range-check every
   register, accumulator and predicate number before they make a cell (and
   do so again for snapshot-restored caches, which compile through the same
   path), so the closures read and write cells unchecked. Constant operands
   and reads of r31 become private cells of their own. *)

type cell = Bytes.t * int

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A private cell holding [v]: a constant operand, or a sink for a value
   that is computed and then discarded. *)
let fresh_cell v : cell =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 v;
  (b, 0)

(* Where a slot's result goes. The accumulator shapes belong to the acc
   backend: an accumulator write also clears the accumulator's
   conditional-move predicate flag, one byte of the same [Bytes.t]. *)
type dst =
  | D_none (* r31 or no destination: the write is discarded *)
  | D_cell of cell (* one register *)
  | D_acc of Bytes.t * int * int (* accumulator bytes, offset, flag offset *)
  | D_acc_gpr of Bytes.t * int * int * cell (* accumulator and a GPR *)

module A = Alpha.Insn

let sext32 v = Int64.of_int32 (Int64.to_int32 v)
let bool64 b = if b then 1L else 0L

(* The operator evaluator, equal to {!Alpha.Insn.eval_op} on every
   non-conditional-move operator. Inlined into each ALU closure, so the
   match on [op] is one jump-table dispatch and the result stays unboxed;
   the byte-manipulation, count and high-multiply operators are rare and
   call [eval_op], boxing their operands. *)
let[@inline] eval (op : A.op3) a b =
  match op with
  | Addl -> sext32 (Int64.add a b)
  | Addq -> Int64.add a b
  | Subl -> sext32 (Int64.sub a b)
  | Subq -> Int64.sub a b
  | S4addl -> sext32 (Int64.add (Int64.mul a 4L) b)
  | S4addq -> Int64.add (Int64.mul a 4L) b
  | S8addl -> sext32 (Int64.add (Int64.mul a 8L) b)
  | S8addq -> Int64.add (Int64.mul a 8L) b
  | S4subl -> sext32 (Int64.sub (Int64.mul a 4L) b)
  | S4subq -> Int64.sub (Int64.mul a 4L) b
  | S8subl -> sext32 (Int64.sub (Int64.mul a 8L) b)
  | S8subq -> Int64.sub (Int64.mul a 8L) b
  | Cmpeq -> bool64 (Int64.equal a b)
  | Cmplt -> bool64 (Int64.compare a b < 0)
  | Cmple -> bool64 (Int64.compare a b <= 0)
  | Cmpult -> bool64 (Int64.unsigned_compare a b < 0)
  | Cmpule -> bool64 (Int64.unsigned_compare a b <= 0)
  | And_ -> Int64.logand a b
  | Bic -> Int64.logand a (Int64.lognot b)
  | Bis -> Int64.logor a b
  | Ornot -> Int64.logor a (Int64.lognot b)
  | Xor -> Int64.logxor a b
  | Eqv -> Int64.logxor a (Int64.lognot b)
  | Sll -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Srl -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | Sra -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | Mull -> sext32 (Int64.mul a b)
  | Mulq -> Int64.mul a b
  | Sextb -> Int64.shift_right (Int64.shift_left b 56) 56
  | Sextw -> Int64.shift_right (Int64.shift_left b 48) 48
  | Extbl | Extwl | Extll | Extql | Extwh | Extlh | Extqh | Insbl | Inswl
  | Insll | Insql | Mskbl | Mskwl | Mskll | Mskql | Zap | Zapnot | Cmpbge
  | Umulh | Ctpop | Ctlz | Cttz | Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle
  | Cmovgt | Cmovlbs | Cmovlbc ->
    A.eval_op op a b

(* The condition evaluator, equal to {!Alpha.Insn.cond_true}. *)
let[@inline] holds (c : A.cond) v =
  match c with
  | Eq -> Int64.equal v 0L
  | Ne -> not (Int64.equal v 0L)
  | Lt -> Int64.compare v 0L < 0
  | Ge -> Int64.compare v 0L >= 0
  | Le -> Int64.compare v 0L <= 0
  | Gt -> Int64.compare v 0L > 0
  | Lbc -> Int64.equal (Int64.logand v 1L) 0L
  | Lbs -> Int64.equal (Int64.logand v 1L) 1L

let is_cmov_op : A.op3 -> bool = function
  | Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc ->
    true
  | _ -> false

(* [d <- a op b]. A discarded result is never computed: operators are pure. *)
let alu op d ((xa, ia) : cell) ((xb, ib) : cell) ~next : (_, _) op =
  if is_cmov_op op then
    invalid_arg "engine: conditional move needs three operands";
  match d with
  | D_none -> fun _ -> next
  | D_cell (x, i) ->
    fun _ ->
      set64 x i (eval op (get64 xa ia) (get64 xb ib));
      next
  | D_acc (x, i, f) ->
    fun _ ->
      set64 x i (eval op (get64 xa ia) (get64 xb ib));
      Bytes.unsafe_set x f '\000';
      next
  | D_acc_gpr (x, i, f, (y, j)) ->
    fun _ ->
      let v = eval op (get64 xa ia) (get64 xb ib) in
      set64 x i v;
      Bytes.unsafe_set x f '\000';
      set64 y j v;
      next

(* [d <- s]: register copies and constant loads. *)
let move d ((xs, is) : cell) ~next : (_, _) op =
  match d with
  | D_none -> fun _ -> next
  | D_cell (x, i) ->
    fun _ ->
      set64 x i (get64 xs is);
      next
  | D_acc (x, i, f) ->
    fun _ ->
      set64 x i (get64 xs is);
      Bytes.unsafe_set x f '\000';
      next
  | D_acc_gpr (x, i, f, (y, j)) ->
    fun _ ->
      let v = get64 xs is in
      set64 x i v;
      Bytes.unsafe_set x f '\000';
      set64 y j v;
      next

(* The Alpha conditional move: [if cond (c) then d <- s]. *)
let cmov cond ((xc, ic) : cell) ((xs, is) : cell) d ~next : (_, _) op =
  match d with
  | D_none -> fun _ -> next
  | D_cell (x, i) ->
    fun _ ->
      if holds cond (get64 xc ic) then set64 x i (get64 xs is);
      next
  | D_acc _ | D_acc_gpr _ ->
    invalid_arg "engine: conditional move into an accumulator"

(* The acc I-ISA's conditional-move test: [d <- old], and the predicate
   flag of [d]'s accumulator becomes [cond (c)]. *)
let cmov_test cond ((xc, ic) : cell) ((xo, io) : cell) d ~next : (_, _) op =
  match d with
  | D_acc (x, i, f) ->
    fun _ ->
      let p = holds cond (get64 xc ic) in
      set64 x i (get64 xo io);
      Bytes.unsafe_set x f (if p then '\001' else '\000');
      next
  | D_acc_gpr (x, i, f, (y, j)) ->
    fun _ ->
      let p = holds cond (get64 xc ic) in
      let v = get64 xo io in
      set64 x i v;
      set64 y j v;
      Bytes.unsafe_set x f (if p then '\001' else '\000');
      next
  | D_none | D_cell _ ->
    invalid_arg "engine: cmov-test without an accumulator destination"

(* The acc I-ISA's conditional-move select: [d <- if flag then nv else a],
   where [flag] is [a]'s predicate flag byte. *)
let select ((xf, f) : Bytes.t * int) ((xn, in_) : cell) ((xa, ia) : cell) d
    ~next : (_, _) op =
  let[@inline] pick () =
    if Bytes.unsafe_get xf f <> '\000' then get64 xn in_ else get64 xa ia
  in
  match d with
  | D_none -> fun _ -> next
  | D_cell (x, i) ->
    fun _ ->
      set64 x i (pick ());
      next
  | D_acc (x, i, fl) ->
    fun _ ->
      set64 x i (pick ());
      Bytes.unsafe_set x fl '\000';
      next
  | D_acc_gpr (x, i, fl, (y, j)) ->
    fun _ ->
      let v = pick () in
      set64 x i v;
      Bytes.unsafe_set x fl '\000';
      set64 y j v;
      next

(* Memory access widths. Loads of 2 and 1 bytes zero-extend; a 4-byte load
   sign-extends ([Ld_l]) or zero-extends ([Ld_lu]). *)
type load = Ld_q | Ld_l | Ld_lu | Ld_wu | Ld_bu
type store = St_q | St_l | St_w | St_b

let page_mask = Machine.Memory.chunk_size - 1

let[@inline] loaded kind p off =
  match kind with
  | Ld_q -> Bytes.get_int64_le p off
  | Ld_l -> Int64.of_int32 (Bytes.get_int32_le p off)
  | Ld_lu ->
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xffffffffL
  | Ld_wu -> Int64.of_int (Bytes.get_uint16_le p off)
  | Ld_bu -> Int64.of_int (Bytes.get_uint8 p off)

let[@inline] stored kind p off v =
  match kind with
  | St_q -> Bytes.set_int64_le p off v
  | St_l -> Bytes.set_int32_le p off (Int64.to_int32 v)
  | St_w -> Bytes.set_uint16_le p off (Int64.to_int v land 0xffff)
  | St_b -> Bytes.set_uint8 p off (Int64.to_int v land 0xff)

(* The effective address of [disp(base)], recorded for the timing sink. *)
let[@inline] ea t xb ib disp =
  let addr = (Int64.to_int (get64 xb ib) + disp) land addr_mask in
  t.ev_ea <- addr;
  addr

(* [d <- mem[disp(base)]]. An unaligned or unmapped access returns
   [ret_fault]; an aligned access never straddles a chunk, so one page
   fetch serves it. A discarded value is still loaded, so its fault
   surfaces. *)
let load kind mem d ((xb, ib) : cell) disp ~next : (_, _) op =
  let amask =
    match kind with Ld_q -> 7 | Ld_l | Ld_lu -> 3 | Ld_wu -> 1 | Ld_bu -> 0
  in
  let module M = Machine.Memory in
  match d with
  | D_none | D_cell _ ->
    let x, i = match d with D_cell c -> c | _ -> fresh_cell 0L in
    fun t ->
      let addr = ea t xb ib disp in
      if addr land amask <> 0 then ret_fault
      else
        let p = M.page mem addr in
        if p == M.unmapped then ret_fault
        else begin
          set64 x i (loaded kind p (addr land page_mask));
          next
        end
  | D_acc (x, i, f) ->
    fun t ->
      let addr = ea t xb ib disp in
      if addr land amask <> 0 then ret_fault
      else
        let p = M.page mem addr in
        if p == M.unmapped then ret_fault
        else begin
          set64 x i (loaded kind p (addr land page_mask));
          Bytes.unsafe_set x f '\000';
          next
        end
  | D_acc_gpr (x, i, f, (y, j)) ->
    fun t ->
      let addr = ea t xb ib disp in
      if addr land amask <> 0 then ret_fault
      else
        let p = M.page mem addr in
        if p == M.unmapped then ret_fault
        else begin
          let v = loaded kind p (addr land page_mask) in
          set64 x i v;
          Bytes.unsafe_set x f '\000';
          set64 y j v;
          next
        end

(* [mem[disp(base)] <- v], with the faults of {!load}. *)
let store kind mem ((xv, iv) : cell) ((xb, ib) : cell) disp ~next : (_, _) op
    =
  let amask = match kind with St_q -> 7 | St_l -> 3 | St_w -> 1 | St_b -> 0 in
  let module M = Machine.Memory in
  fun t ->
    let addr = ea t xb ib disp in
    if addr land amask <> 0 then ret_fault
    else
      let p = M.wpage mem addr in
      if p == M.unmapped then ret_fault
      else begin
        stored kind p (addr land page_mask) (get64 xv iv);
        next
      end

(* Direct branch. The target's entry status is static, so its fragment is
   resolved at compile time. *)
let br ~target (frag : Tcache.frag option) : (_, _) op =
  match frag with
  | Some f ->
    fun t ->
      t.ev_taken <- true;
      enter_fragment t f;
      target
  | None ->
    fun t ->
      t.ev_taken <- true;
      target

(* Conditional branch on a register. *)
let bc cond ((x, i) : cell) ~target (frag : Tcache.frag option) ~next :
    (_, _) op =
  match frag with
  | Some f ->
    fun t ->
      if holds cond (get64 x i) then begin
        t.ev_taken <- true;
        enter_fragment t f;
        target
      end
      else next
  | None ->
    fun t ->
      if holds cond (get64 x i) then begin
        t.ev_taken <- true;
        target
      end
      else next

(* Conditional exit to the translator. *)
let exit_if cond ((x, i) : cell) ~code ~next : (_, _) op =
 fun t ->
  if holds cond (get64 x i) then begin
    t.ev_taken <- true;
    code
  end
  else next

(* Register-indirect transfer to the slot the register holds. *)
let jump ((x, i) : cell) : (_, _) op =
 fun t ->
  t.ev_taken <- true;
  let n = check_slot t (Int64.to_int (get64 x i)) in
  enter_dynamic t n;
  n

(* Call linkage: the link register gets the V-ISA return address, and
   with a dual-address RAS ([ras]) the (V, I) return pair is pushed. A
   negative [i_ret] marks an unpatched push, whose return point was not yet
   translated when it was emitted. *)
let push_dras d ~v_ret ~i_ret ~ras ~next : (_, _) op =
  let link = move d (fresh_cell (Int64.of_int v_ret)) ~next in
  if ras then
    let i_addr = if i_ret >= 0 then Some i_ret else None in
    fun t ->
      Machine.Dual_ras.push t.dras ~v_addr:v_ret ~i_addr;
      link t
  else link

(* Dual-RAS return: a verified pair transfers to its I-address; a stale or
   unpatched pair or an empty stack falls through to the dispatch path that
   follows every dual-RAS return. *)
let ret_dras ((x, i) : cell) ~next : (_, _) op =
 fun t ->
  match
    Machine.Dual_ras.pop_verify t.dras ~v_actual:(Int64.to_int (get64 x i))
  with
  | Some n ->
    t.stats.ret_dras_hits <- t.stats.ret_dras_hits + 1;
    t.ev_taken <- true;
    let n = check_slot t n in
    enter_dynamic t n;
    n
  | None ->
    t.stats.ret_dras_misses <- t.stats.ret_dras_misses + 1;
    next

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

  val acc : regs -> int -> int64
  (* accumulator [a], which PEI maps index; bounds-checked, and on a
     backend without accumulators it always raises *)

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
      Array.iter
        (fun (a, r) -> Alpha.Interp.set t.interp r (acc t.regs a))
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
