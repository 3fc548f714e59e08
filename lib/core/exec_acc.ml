module Memory = Machine.Memory
module Vec = Machine.Vec
module I = Accisa.Insn

(* Functional execution engines for translated accumulator-ISA code.

   Architected Alpha registers are shared with the interpreter's register
   file (the VM keeps one architected state); accumulators, VM scratch
   registers and the dual-address RAS belong to this engine. Execution
   proceeds slot by slot through the translation cache until a
   call-translator instruction (or a fuel bound) hands control back to the
   VM.

   Two engines execute the same cache; {!Config.t.engine} picks one for
   timed and untimed runs alike:

   - the {e threaded-code} engine (the default): every cache slot is
     compiled once into a specialized OCaml closure — operand reads, the
     destination write and the ALU operation are resolved to direct array
     accesses at compile time — and [run] is a tight
     [(Array.unsafe_get ops slot) t] trampoline. A compiled op returns the
     next slot index, or a negative exit sentinel (see
     [ret_trap]/[ret_exit]). With a timing sink attached, a second
     trampoline emits one {!Machine.Ev.t} per executed slot: the slot's
     template plus the effective address and taken flag the op stored in
     [ev_ea]/[ev_taken];
   - the {e instrumented} engine ([Matched]): a per-slot variant match,
     with or without a sink. It is the reference engine of the
     differential tests.

   Both engines maintain the same statistics record, execute the same
   value functions, emit the same events, and are asserted byte-identical
   by the differential tests and the lockstep oracle.

   Precise traps: a memory fault inside a fragment looks up the PEI table
   entry for the faulting slot, restores any architected values still live
   in accumulators via the recorded accumulator map, sets the interpreter's
   PC to the V-ISA instruction, and reports [X_trap_recovered]; the VM then
   re-executes that instruction by interpretation, which raises the
   architectural trap with fully precise state. *)

type stats = {
  mutable i_exec : int; (* I-ISA instructions executed *)
  by_class : int array; (* per Translate.slot_class *)
  mutable alpha_retired : int; (* V-ISA instructions retired in fragments *)
  mutable st_cycles : int;
  (* static cycle cost charged (fast-forward tier): the sum of the
     executed slots' translation-time Ildp annotations, 0 when the VM was
     built without an annotator *)
  mutable frag_enters : int;
  mutable ret_dras_hits : int;
  mutable ret_dras_misses : int;
}

type t = {
  ctx : Translate.ctx;
  interp : Alpha.Interp.t; (* shares architected registers and memory *)
  scratch : int64 array; (* VM registers 32..63 *)
  accs : int64 array;
  preds : bool array; (* conditional-move predicate flag per accumulator *)
  dras : Machine.Dual_ras.t;
  mutable vbase : int;
  stats : stats;
  (* --- threaded-code engine state --- *)
  mutable ops : op array; (* compiled slots [0, ops_len) *)
  mutable alphas : int array; (* per-slot V-ISA retirement, ops-parallel *)
  mutable classes : int array; (* per-slot Translate.slot_class, ops-parallel *)
  mutable cycs : int array; (* per-slot static Ildp cycles, ops-parallel *)
  mutable ops_len : int;
  mutable ops_gen : int; (* Tcache generation the compiled prefix shadows *)
  mutable patch_mark : int; (* patch-log entries already recompiled *)
  mutable budget : int; (* V-ISA retirement budget of the current run *)
  mutable ev_ea : int; (* effective address of the last load or store op *)
  mutable ev_taken : bool; (* the last control op transferred control *)
  (* [ev_ea]/[ev_taken]: the dynamic event fields a compiled op leaves for
     the sink trampoline; sink-less runs store them and never read them *)
  tmpls : Machine.Ev.t Tcache.Acc.shadow;
  (* per-slot static part of the slot's timing event, built on the slot's
     first commit under a sink; [Ev.default] until then *)
}

and op = t -> int

type exit =
  | X_reason of Exitr.reason
  | X_trap_recovered (* interpreter PC set to the faulting V-instruction *)
  | X_fuel

let create ctx interp =
  Translate.map_vm_memory interp.Alpha.Interp.mem;
  {
    ctx;
    interp;
    scratch = Array.make 32 0L;
    accs = Array.make 8 0L;
    preds = Array.make 8 false;
    dras = Machine.Dual_ras.create ();
    vbase = 0;
    stats =
      {
        i_exec = 0;
        by_class = Array.make 4 0;
        alpha_retired = 0;
        st_cycles = 0;
        frag_enters = 0;
        ret_dras_hits = 0;
        ret_dras_misses = 0;
      };
    ops = [||];
    alphas = [||];
    classes = [||];
    cycs = [||];
    ops_len = 0;
    ops_gen = -1;
    patch_mark = 0;
    budget = 0;
    ev_ea = 0;
    ev_taken = false;
    tmpls = Tcache.Acc.shadow Machine.Ev.default;
  }

let get_g t g =
  if g < 32 then Alpha.Interp.get t.interp g else t.scratch.(g - 32)

let set_g t g v =
  if g < 32 then Alpha.Interp.set t.interp g v else t.scratch.(g - 32) <- v

let src_val t : I.src -> int64 = function
  | Sacc a -> t.accs.(a)
  | Sgpr g -> get_g t g
  | Simm v -> v

let write_dst t (d : I.dst) v =
  if d.dacc >= 0 then begin
    t.accs.(d.dacc) <- v;
    t.preds.(d.dacc) <- false
  end;
  match d.gdst with Some g -> set_g t g v | None -> ()

(* The dispatch argument register holds the dynamic target V-address when
   the dispatch code misses. *)
let dispatch_target t = Int64.to_int (get_g t Translate.vr_arg)

let addr_mask = 0x3fffffffffff

exception Unaligned_acc of int (* address *)

let load_val mem width signed addr =
  match (width : I.width), signed with
  | W8, _ -> Memory.get_i64 mem addr
  | W4, true ->
    Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 mem addr)))
  | W4, false -> Int64.of_int (Memory.get_u32 mem addr)
  | W2, _ -> Int64.of_int (Memory.get_u16 mem addr)
  | W1, _ -> Int64.of_int (Memory.get_u8 mem addr)

let store_val mem width addr v =
  match (width : I.width) with
  | W8 -> Memory.set_i64 mem addr v
  | W4 -> Memory.set_u32 mem addr (Int64.to_int (Int64.logand v 0xffffffffL))
  | W2 -> Memory.set_u16 mem addr (Int64.to_int (Int64.logand v 0xffffL))
  | W1 -> Memory.set_u8 mem addr (Int64.to_int (Int64.logand v 0xffL))

(* Apply the PEI-table accumulator map: architected values still living only
   in accumulators are written back to the register file. *)
let apply_pei_map t slot =
  match Tcache.Acc.pei_at t.ctx.tc slot with
  | Some pei ->
    Array.iter
      (fun (a, r) -> Alpha.Interp.set t.interp r t.accs.(a))
      pei.Tcache.acc_map;
    Some pei.pei_v_pc
  | None -> None

(* ---------- threaded-code engine: slot compilation ---------- *)

(* Exit protocol of a compiled op: a return value >= 0 is the next slot;
   [ret_trap] reports a completed PEI repair (interpreter PC already set);
   [ret_exit id] names an entry of [ctx.exits]. *)
let ret_trap = -1
let ret_exit exit_id = -(exit_id + 2)

(* Compile-time operand and destination shapes. After r31 and bounds
   resolution every operand is a constant or one (array, index) cell, and
   every destination is one of four store shapes; the specialized closures
   built from these touch no variants and allocate nothing at run time. *)
type loc = L_arr of int64 array * int | L_const of int64

type wshape =
  | W_acc of int (* accumulator only *)
  | W_acc_gpr of int * int64 array * int (* accumulator + embedded GPR *)
  | W_gpr of int64 array * int (* GPR only *)
  | W_discard (* r31 or no destination at all *)

let src_loc t : I.src -> loc = function
  | Sacc a ->
    if a < 0 || a >= Array.length t.accs then
      invalid_arg "exec_acc: accumulator out of range";
    L_arr (t.accs, a)
  | Sgpr g ->
    if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
    if g = Alpha.Reg.zero then L_const 0L
    else if g < 32 then L_arr (t.interp.regs, g)
    else L_arr (t.scratch, g - 32)
  | Simm v -> L_const v

(* GPR write cell; [None] when the write is architecturally discarded. *)
let gpr_loc t g =
  if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
  if g = Alpha.Reg.zero then None
  else if g < 32 then Some (t.interp.regs, g)
  else Some (t.scratch, g - 32)

let dst_shape t (d : I.dst) =
  let acc = d.dacc in
  let gpr = Option.bind d.gdst (gpr_loc t) in
  if acc >= 0 then begin
    if acc >= Array.length t.accs then
      invalid_arg "exec_acc: accumulator out of range";
    match gpr with
    | Some (x, i) -> W_acc_gpr (acc, x, i)
    | None -> W_acc acc
  end
  else match gpr with Some (x, i) -> W_gpr (x, i) | None -> W_discard

(* Closure forms of the shapes, for the generic (cold-ish) arms. *)
let src_fn t s : unit -> int64 =
  match src_loc t s with
  | L_arr (x, i) -> fun () -> Array.unsafe_get x i
  | L_const v -> fun () -> v

let gpr_set_fn t g : (int64 -> unit) option =
  match gpr_loc t g with
  | Some (x, i) -> Some (fun v -> Array.unsafe_set x i v)
  | None -> None

let dst_fn t (d : I.dst) : int64 -> unit =
  match dst_shape t d with
  | W_acc acc ->
    let accs = t.accs and preds = t.preds in
    fun v ->
      Array.unsafe_set accs acc v;
      Array.unsafe_set preds acc false
  | W_acc_gpr (acc, x, i) ->
    let accs = t.accs and preds = t.preds in
    fun v ->
      Array.unsafe_set accs acc v;
      Array.unsafe_set preds acc false;
      Array.unsafe_set x i v
  | W_gpr (x, i) -> fun v -> Array.unsafe_set x i v
  | W_discard -> fun _ -> ()

(* Cold path shared by every compiled load/store: the faulting V-ISA
   instruction does not commit here — the VM re-executes it by
   interpretation — so take back the one retirement credit its slot claimed
   for it (credits for earlier straightened-away instructions folded into
   the same slot did commit and stay counted). *)
let faulted t s =
  t.stats.alpha_retired <- t.stats.alpha_retired - 1;
  t.budget <- t.budget + 1;
  (* unlike the single retirement credit above, the slot's whole static
     cycle cost is refunded: the interpreter re-execution is charged at
     full fidelity by the caller's dynamic-correction path, so leaving any
     static share behind would double-charge the faulting instruction *)
  t.stats.st_cycles <- t.stats.st_cycles - Array.unsafe_get t.cycs s;
  match apply_pei_map t s with
  | Some v_pc ->
    t.interp.pc <- v_pc;
    ret_trap
  | None -> failwith "exec_acc: fault at a slot with no PEI entry"

(* Single source of truth for fragment-entry accounting. *)
let enter_fragment t (f : Tcache.frag) =
  f.exec_count <- f.exec_count + 1;
  t.stats.frag_enters <- t.stats.frag_enters + 1

(* Fragment-entry accounting for a dynamic (register-valued) transfer
   target: O(1) probe of the cache's slot-indexed entry map. *)
let enter_dynamic t target =
  let tc = t.ctx.tc in
  let id = Tcache.Acc.frag_id_of_entry tc target in
  if id >= 0 then enter_fragment t (Tcache.Acc.frag_by_id tc id)

(* Dynamic transfer targets are validated here so the trampoline's
   unchecked [ops] indexing stays safe; static targets are validated at
   compile time. *)
let check_slot t n =
  if n < 0 || n >= t.ops_len then
    invalid_arg "exec_acc: indirect transfer to an invalid slot";
  n

let check_static t ~slot target =
  if target < 0 || target >= Tcache.Acc.n_slots t.ctx.tc then
    invalid_arg
      (Printf.sprintf "exec_acc: slot %d branches to invalid slot %d" slot
         target)

(* Compile one cache slot into its specialized closure. Runs after
   translation of the current superblock is complete, so every static branch
   target exists and the entry status of every existing slot is final
   (entries are declared before their slot is pushed; patches and flushes
   trigger recompilation through the patch log / generation counter). *)
(* Compile one cache slot to its work closure; per-slot statistics and the
   budget decrement live in the trampoline (plain array reads), so the hot
   path pays exactly one indirect call per executed slot. *)
let compile t s : op =
  let tc = t.ctx.tc in
  let insn = Tcache.Acc.get tc s in
  let st = t.stats in
  let next = s + 1 in
  match insn with
    | I.Alu { op; d; a; b } -> (
      let f = Alpha.Insn.eval_fn op in
      let accs = t.accs and preds = t.preds in
      (* fully flattened: one specialized closure per (destination shape x
         operand shapes); the hot path is a handful of unchecked array
         accesses around the pre-matched operator *)
      match (dst_shape t d, src_loc t a, src_loc t b) with
      | W_acc acc, L_arr (xa, ia), L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set accs acc
            (f (Array.unsafe_get xa ia) (Array.unsafe_get xb ib));
          Array.unsafe_set preds acc false;
          next
      | W_acc acc, L_arr (xa, ia), L_const cb ->
        fun _ ->
          Array.unsafe_set accs acc (f (Array.unsafe_get xa ia) cb);
          Array.unsafe_set preds acc false;
          next
      | W_acc acc, L_const ca, L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set accs acc (f ca (Array.unsafe_get xb ib));
          Array.unsafe_set preds acc false;
          next
      | W_acc acc, L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          next
      | W_acc_gpr (acc, xd, id_), L_arr (xa, ia), L_arr (xb, ib) ->
        fun _ ->
          let v = f (Array.unsafe_get xa ia) (Array.unsafe_get xb ib) in
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_acc_gpr (acc, xd, id_), L_arr (xa, ia), L_const cb ->
        fun _ ->
          let v = f (Array.unsafe_get xa ia) cb in
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_acc_gpr (acc, xd, id_), L_const ca, L_arr (xb, ib) ->
        fun _ ->
          let v = f ca (Array.unsafe_get xb ib) in
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_acc_gpr (acc, xd, id_), L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set accs acc v;
          Array.unsafe_set preds acc false;
          Array.unsafe_set xd id_ v;
          next
      | W_gpr (xd, id_), L_arr (xa, ia), L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set xd id_
            (f (Array.unsafe_get xa ia) (Array.unsafe_get xb ib));
          next
      | W_gpr (xd, id_), L_arr (xa, ia), L_const cb ->
        fun _ ->
          Array.unsafe_set xd id_ (f (Array.unsafe_get xa ia) cb);
          next
      | W_gpr (xd, id_), L_const ca, L_arr (xb, ib) ->
        fun _ ->
          Array.unsafe_set xd id_ (f ca (Array.unsafe_get xb ib));
          next
      | W_gpr (xd, id_), L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set xd id_ v;
          next
      | W_discard, _, _ -> fun _ -> next)
    | I.Cmov_test { cond; d; cv; old } ->
      let c = Alpha.Insn.cond_fn cond in
      let gcv = src_fn t cv and gold = src_fn t old in
      let w = dst_fn t d in
      let da = d.dacc and preds = t.preds in
      if da < 0 || da >= Array.length preds then
        invalid_arg "exec_acc: cmov-test without an accumulator destination";
      fun _ ->
        let p = c (gcv ()) in
        w (gold ());
        Array.unsafe_set preds da p;
        next
    | I.Cmov_sel { d; p; nv } ->
      let pa = match p with I.Sacc a -> a | _ -> assert false in
      if pa < 0 || pa >= Array.length t.preds then
        invalid_arg "exec_acc: cmov-sel predicate out of range";
      let gnv = src_fn t nv in
      let w = dst_fn t d in
      let preds = t.preds and accs = t.accs in
      fun _ ->
        w
          (if Array.unsafe_get preds pa then gnv ()
           else Array.unsafe_get accs pa);
        next
    | I.Load { width; signed; d; base; disp } -> (
      let mem = t.interp.mem in
      let amask = I.bytes_of_width width - 1 in
      let ld : int -> int64 =
        match width, signed with
        | I.W8, _ -> Memory.get_i64 mem
        | I.W4, true ->
          fun a ->
            Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 mem a)))
        | I.W4, false -> fun a -> Int64.of_int (Memory.get_u32 mem a)
        | I.W2, _ -> fun a -> Int64.of_int (Memory.get_u16 mem a)
        | I.W1, _ -> fun a -> Int64.of_int (Memory.get_u8 mem a)
      in
      let accs = t.accs and preds = t.preds in
      match (dst_shape t d, src_loc t base) with
      | W_acc acc, L_arr (xb, ib) ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match ld addr with
            | v ->
              Array.unsafe_set accs acc v;
              Array.unsafe_set preds acc false;
              next
            | exception Memory.Fault _ -> faulted t s)
      | W_acc_gpr (acc, xd, id_), L_arr (xb, ib) ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match ld addr with
            | v ->
              Array.unsafe_set accs acc v;
              Array.unsafe_set preds acc false;
              Array.unsafe_set xd id_ v;
              next
            | exception Memory.Fault _ -> faulted t s)
      | W_gpr (xd, id_), L_arr (xb, ib) ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match ld addr with
            | v ->
              Array.unsafe_set xd id_ v;
              next
            | exception Memory.Fault _ -> faulted t s)
      | W_discard, L_arr (xb, ib) ->
        (* value discarded; address faults must still surface *)
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match ld addr with
            | _ -> next
            | exception Memory.Fault _ -> faulted t s)
      | shape, L_const cb ->
        let addr = (Int64.to_int cb + disp) land addr_mask in
        let w = dst_fn t d in
        ignore shape;
        if addr land amask <> 0 then (fun t ->
          t.ev_ea <- addr;
          faulted t s)
        else
          fun t ->
            t.ev_ea <- addr;
            (match ld addr with
            | v ->
              w v;
              next
            | exception Memory.Fault _ -> faulted t s))
    | I.Store { width; value; base; disp } -> (
      let mem = t.interp.mem in
      let amask = I.bytes_of_width width - 1 in
      let st_ : int -> int64 -> unit =
        match width with
        | I.W8 -> Memory.set_i64 mem
        | I.W4 ->
          fun a v ->
            Memory.set_u32 mem a (Int64.to_int (Int64.logand v 0xffffffffL))
        | I.W2 ->
          fun a v -> Memory.set_u16 mem a (Int64.to_int (Int64.logand v 0xffffL))
        | I.W1 ->
          fun a v -> Memory.set_u8 mem a (Int64.to_int (Int64.logand v 0xffL))
      in
      match (src_loc t value, src_loc t base) with
      | L_arr (xv, iv), L_arr (xb, ib) ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match st_ addr (Array.unsafe_get xv iv) with
            | () -> next
            | exception Memory.Fault _ -> faulted t s)
      | L_const cv, L_arr (xb, ib) ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match st_ addr cv with
            | () -> next
            | exception Memory.Fault _ -> faulted t s)
      | gv_loc, L_const cb ->
        let gv =
          match gv_loc with
          | L_arr (x, i) -> fun () -> Array.unsafe_get x i
          | L_const v -> fun () -> v
        in
        let addr = (Int64.to_int cb + disp) land addr_mask in
        if addr land amask <> 0 then (fun t ->
          t.ev_ea <- addr;
          faulted t s)
        else
          fun t ->
            t.ev_ea <- addr;
            (match st_ addr (gv ()) with
            | () -> next
            | exception Memory.Fault _ -> faulted t s))
    | I.Copy_to_gpr { g; a } ->
      if a < 0 || a >= Array.length t.accs then
        invalid_arg "exec_acc: accumulator out of range";
      let accs = t.accs in
      (match gpr_set_fn t g with
      | Some set ->
        fun _ ->
          set (Array.unsafe_get accs a);
          next
      | None -> fun _ -> next)
    | I.Copy_from_gpr { d; g } ->
      let gr = src_fn t (I.Sgpr g) in
      let w = dst_fn t d in
      fun _ ->
        w (gr ());
        next
    | I.Br { target } -> (
      check_static t ~slot:s target;
      (* entry status is static: resolve the fragment at compile time *)
      match Tcache.Acc.frag_of_entry tc target with
      | Some f ->
        fun t ->
          t.ev_taken <- true;
          enter_fragment t f;
          target
      | None ->
        fun t ->
          t.ev_taken <- true;
          target)
    | I.Bc { cond; v; target } -> (
      check_static t ~slot:s target;
      let c = Alpha.Insn.cond_fn cond in
      match (Tcache.Acc.frag_of_entry tc target, src_loc t v) with
      | Some f, L_arr (x, i) ->
        fun t ->
          if c (Array.unsafe_get x i) then begin
            t.ev_taken <- true;
            enter_fragment t f;
            target
          end
          else next
      | Some f, L_const cv ->
        let tk = c cv in
        fun t ->
          if tk then begin
            t.ev_taken <- true;
            enter_fragment t f;
            target
          end
          else next
      | None, L_arr (x, i) ->
        fun t ->
          if c (Array.unsafe_get x i) then begin
            t.ev_taken <- true;
            target
          end
          else next
      | None, L_const cv ->
        if c cv then (fun t ->
          t.ev_taken <- true;
          target)
        else fun _ -> next)
    | I.Jmp_ind { v } ->
      let gv = src_fn t v in
      fun t ->
        t.ev_taken <- true;
        let n = check_slot t (Int64.to_int (gv ())) in
        enter_dynamic t n;
        n
    | I.Lta { d; value } ->
      let w = dst_fn t d in
      fun _ ->
        w value;
        next
    | I.Set_vbase { vaddr } ->
      fun t ->
        t.vbase <- vaddr;
        next
    | I.Push_dras { g; v_ret; i_ret } ->
      let vr = Int64.of_int v_ret in
      let set =
        match gpr_set_fn t g with Some f -> f | None -> fun _ -> ()
      in
      (match t.ctx.cfg.chaining with
      | Config.Sw_pred_ras ->
        (* an unpatched push (return point untranslated at emission time)
           encodes its missing target as a negative immediate *)
        let i_opt = if i_ret >= 0 then Some i_ret else None in
        let dras = t.dras in
        fun _ ->
          set vr;
          Machine.Dual_ras.push dras ~v_addr:v_ret ~i_addr:i_opt;
          next
      | Config.No_pred | Config.Sw_pred_no_ras ->
        fun _ ->
          set vr;
          next)
    | I.Ret_dras { v } ->
      let gv = src_fn t v in
      let dras = t.dras in
      fun t -> (
        match
          Machine.Dual_ras.pop_verify dras ~v_actual:(Int64.to_int (gv ()))
        with
        | Some i ->
          st.ret_dras_hits <- st.ret_dras_hits + 1;
          t.ev_taken <- true;
          let i = check_slot t i in
          enter_dynamic t i;
          i
        | None ->
          (* stale/unpatched pair or empty stack: fall through to the
             dispatch path that follows every dual-RAS return *)
          st.ret_dras_misses <- st.ret_dras_misses + 1;
          next)
    | I.Call_xlate { exit_id } -> (
      let code = ret_exit exit_id in
      (* architected values still in accumulators (PAL exits) *)
      match Tcache.Acc.pei_at tc s with
      | Some pei ->
        let map = pei.Tcache.acc_map in
        fun t ->
          Array.iter
            (fun (a, r) -> Alpha.Interp.set t.interp r t.accs.(a))
            map;
          code
      | None -> fun _ -> code)
    | I.Call_xlate_cond { cond; v; exit_id } ->
      let c = Alpha.Insn.cond_fn cond in
      let gv = src_fn t v in
      let code = ret_exit exit_id in
      fun t ->
        if c (gv ()) then begin
          t.ev_taken <- true;
          code
        end
        else next

let uncompiled_op : op = fun _ -> failwith "exec_acc: uncompiled slot"

(* Telemetry (names shared with Exec_straight: a VM owns one engine, so
   the registry aggregates whichever backend ran). *)
let c_compiles = Obs.counter "engine.compiled_slots"
let c_replays = Obs.counter "engine.patch_replays"
let sp_compile = Obs.span "compile_to_closure"

(* Lazily (re)build the compiled-op shadow of the translation cache: reset
   on cache flush (generation bump), compile newly pushed slots, then
   recompile every slot patched since the last sync (chaining patches
   rewrite call-translator slots into direct branches). *)
let sync_ops t =
  let tc = t.ctx.tc in
  let gen = Tcache.Acc.generation tc in
  if t.ops_gen <> gen then begin
    t.ops <- [||];
    t.ops_len <- 0;
    t.patch_mark <- 0;
    t.ops_gen <- gen
  end;
  let n = Tcache.Acc.n_slots tc in
  if n > Array.length t.ops then begin
    let cap = ref (max 1024 (Array.length t.ops)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let grown = Array.make !cap uncompiled_op in
    Array.blit t.ops 0 grown 0 t.ops_len;
    t.ops <- grown;
    let ga = Array.make !cap 0 and gc = Array.make !cap 0 in
    let gy = Array.make !cap 0 in
    Array.blit t.alphas 0 ga 0 t.ops_len;
    Array.blit t.classes 0 gc 0 t.ops_len;
    Array.blit t.cycs 0 gy 0 t.ops_len;
    t.alphas <- ga;
    t.classes <- gc;
    t.cycs <- gy
  end;
  (* compile fresh slots first so late patches to them recompile below *)
  let m = Tcache.Acc.patch_count tc in
  if n > t.ops_len || m > t.patch_mark then
    Obs.with_span sp_compile (fun () ->
        Obs.bump c_compiles (n - t.ops_len);
        for sl = t.ops_len to n - 1 do
          Array.unsafe_set t.ops sl (compile t sl);
          Array.unsafe_set t.alphas sl (Vec.get t.ctx.slot_alpha sl);
          Array.unsafe_set t.classes sl (Vec.get t.ctx.slot_class sl);
          Array.unsafe_set t.cycs sl (Vec.get t.ctx.slot_cyc_ildp sl)
        done;
        t.ops_len <- n;
        for i = t.patch_mark to m - 1 do
          let sl = Tcache.Acc.patched_slot tc i in
          if sl < n then begin
            t.ops.(sl) <- compile t sl;
            Obs.bump c_replays 1
          end
        done;
        t.patch_mark <- m)

(* Warm start: pay closure compilation for every restored cache slot up
   front instead of on the first [run] after a snapshot load. *)
let prewarm t = sync_ops t

(* Threaded-code trampoline. Statistics and the budget decrement happen
   here, before the op runs (the fault path refunds the faulting
   instruction's credit). The budget check mirrors the instrumented
   engine's ordering: an exit taken on the very slot that exhausts the
   budget wins over [X_fuel]. *)
let run_threaded ?(fuel = max_int) t ~entry : exit =
  sync_ops t;
  if entry < 0 || entry >= t.ops_len then
    invalid_arg "exec_acc: entry is not a translated slot";
  t.budget <- fuel;
  enter_dynamic t entry;
  let ops = t.ops and alphas = t.alphas and classes = t.classes in
  let cycs = t.cycs in
  let st = t.stats in
  let by_class = st.by_class in
  let rec loop slot =
    st.i_exec <- st.i_exec + 1;
    let cls = Array.unsafe_get classes slot in
    Array.unsafe_set by_class cls (Array.unsafe_get by_class cls + 1);
    let a = Array.unsafe_get alphas slot in
    st.alpha_retired <- st.alpha_retired + a;
    st.st_cycles <- st.st_cycles + Array.unsafe_get cycs slot;
    t.budget <- t.budget - a;
    let n = (Array.unsafe_get ops slot) t in
    if n >= 0 then if t.budget <= 0 then X_fuel else loop n
    else if n = ret_trap then X_trap_recovered
    else X_reason (Vec.get t.ctx.exits (-n - 2))
  in
  loop entry

(* The static part of slot [s]'s event, built on its first commit. *)
let tmpl_of t s =
  let cells = t.tmpls.Tcache.Acc.cells in
  let tm = cells.(s) in
  if tm != t.tmpls.empty then tm
  else begin
    let tc = t.ctx.tc in
    let tm =
      Accisa.Trace.ev
        ~strand_start:(Tcache.Acc.starts_strand tc s)
        ~alpha_count:(Vec.get t.ctx.slot_alpha s)
        ~pc:(Tcache.Acc.addr_of tc s) ~ea:0 ~taken:false ~target:0
        (Tcache.Acc.get tc s)
    in
    cells.(s) <- tm;
    tm
  end

(* [run_threaded] with a timing sink: the same accounting, fuel and exit
   tests, plus one event per executed slot, emitted after its op as
   [run_instrumented] does. The op leaves the event's dynamic fields in
   [ev_ea]/[ev_taken]; an exit or trap sentinel reports the fall-through
   address as its target. *)
let run_threaded_sink ~sink ?(fuel = max_int) t ~entry : exit =
  sync_ops t;
  if entry < 0 || entry >= t.ops_len then
    invalid_arg "exec_acc: entry is not a translated slot";
  let tc = t.ctx.tc in
  (* the cache does not change while this loop runs *)
  Tcache.Acc.sync_shadow tc t.tmpls;
  t.budget <- fuel;
  enter_dynamic t entry;
  let ops = t.ops and alphas = t.alphas and classes = t.classes in
  let cycs = t.cycs in
  let st = t.stats in
  let by_class = st.by_class in
  let rec loop slot =
    st.i_exec <- st.i_exec + 1;
    let cls = Array.unsafe_get classes slot in
    Array.unsafe_set by_class cls (Array.unsafe_get by_class cls + 1);
    let a = Array.unsafe_get alphas slot in
    st.alpha_retired <- st.alpha_retired + a;
    st.st_cycles <- st.st_cycles + Array.unsafe_get cycs slot;
    t.budget <- t.budget - a;
    t.ev_ea <- 0;
    t.ev_taken <- false;
    let n = (Array.unsafe_get ops slot) t in
    let (tm : Machine.Ev.t) = tmpl_of t slot in
    sink
      {
        tm with
        ea = t.ev_ea;
        taken = t.ev_taken;
        target = (if n >= 0 then Tcache.Acc.addr_of tc n else tm.pc + 4);
      };
    if n >= 0 then if t.budget <= 0 then X_fuel else loop n
    else if n = ret_trap then X_trap_recovered
    else X_reason (Vec.get t.ctx.exits (-n - 2))
  in
  loop entry

(* ---------- instrumented (match-based) engine ---------- *)

(* Execute from [entry] (a slot) until a VM exit. [fuel] bounds the number
   of V-ISA instructions retired. *)
let run_instrumented ?sink ?(fuel = max_int) t ~entry : exit =
  let tc = t.ctx.tc in
  let budget = ref fuel in
  (* the cache does not change while this loop runs *)
  if Option.is_some sink then Tcache.Acc.sync_shadow tc t.tmpls;
  (match Tcache.Acc.frag_of_entry tc entry with
  | Some f -> enter_fragment t f
  | None -> ());
  let slot = ref entry in
  let result = ref None in
  let running () = match !result with None -> true | Some _ -> false in
  while running () do
    let s = !slot in
    let insn = Tcache.Acc.get tc s in
    let alpha = Vec.get t.ctx.slot_alpha s in
    t.stats.i_exec <- t.stats.i_exec + 1;
    t.stats.by_class.(Vec.get t.ctx.slot_class s) <-
      t.stats.by_class.(Vec.get t.ctx.slot_class s) + 1;
    t.stats.alpha_retired <- t.stats.alpha_retired + alpha;
    t.stats.st_cycles <- t.stats.st_cycles + Vec.get t.ctx.slot_cyc_ildp s;
    budget := !budget - alpha;
    let next = ref (s + 1) in
    let taken = ref false in
    let ea = ref 0 in
    (try
       (match insn with
       | I.Alu { op; d; a; b } ->
         write_dst t d (Alpha.Insn.eval_op op (src_val t a) (src_val t b))
       | I.Cmov_test { cond; d; cv; old } ->
         let p = Alpha.Insn.cond_true cond (src_val t cv) in
         write_dst t d (src_val t old);
         t.preds.(d.dacc) <- p
       | I.Cmov_sel { d; p; nv } ->
         let pa = match p with I.Sacc a -> a | _ -> assert false in
         let v = if t.preds.(pa) then src_val t nv else t.accs.(pa) in
         write_dst t d v
       | I.Load { width; signed; d; base; disp } ->
         let addr = (Int64.to_int (src_val t base) + disp) land addr_mask in
         ea := addr;
         if addr land (I.bytes_of_width width - 1) <> 0 then
           raise (Unaligned_acc addr);
         write_dst t d (load_val t.interp.mem width signed addr)
       | I.Store { width; value; base; disp } ->
         let addr = (Int64.to_int (src_val t base) + disp) land addr_mask in
         ea := addr;
         if addr land (I.bytes_of_width width - 1) <> 0 then
           raise (Unaligned_acc addr);
         store_val t.interp.mem width addr (src_val t value)
       | I.Copy_to_gpr { g; a } -> set_g t g t.accs.(a)
       | I.Copy_from_gpr { d; g } -> write_dst t d (get_g t g)
       | I.Br { target } ->
         taken := true;
         next := target
       | I.Bc { cond; v; target } ->
         if Alpha.Insn.cond_true cond (src_val t v) then begin
           taken := true;
           next := target
         end
       | I.Jmp_ind { v } ->
         taken := true;
         next := Int64.to_int (src_val t v)
       | I.Lta { d; value } -> write_dst t d value
       | I.Set_vbase { vaddr } -> t.vbase <- vaddr
       | I.Push_dras { g; v_ret; i_ret } -> (
         set_g t g (Int64.of_int v_ret);
         (* an unpatched push (return point untranslated at emission time)
            encodes its missing target as a negative immediate *)
         match t.ctx.cfg.chaining with
         | Config.Sw_pred_ras ->
           Machine.Dual_ras.push t.dras ~v_addr:v_ret
             ~i_addr:(if i_ret >= 0 then Some i_ret else None)
         | Config.No_pred | Config.Sw_pred_no_ras -> ())
       | I.Ret_dras { v } -> (
         let v_actual = Int64.to_int (src_val t v) in
         match Machine.Dual_ras.pop_verify t.dras ~v_actual with
         | Some i ->
           t.stats.ret_dras_hits <- t.stats.ret_dras_hits + 1;
           taken := true;
           next := i
         | None ->
           (* stale/unpatched pair or empty stack: fall through to the
              dispatch path that follows every dual-RAS return *)
           t.stats.ret_dras_misses <- t.stats.ret_dras_misses + 1)
       | I.Call_xlate { exit_id } ->
         (* architected values still in accumulators (PAL exits) *)
         ignore (apply_pei_map t s);
         result := Some (X_reason (Vec.get t.ctx.exits exit_id))
       | I.Call_xlate_cond { cond; v; exit_id } ->
         if Alpha.Insn.cond_true cond (src_val t v) then begin
           taken := true;
           result := Some (X_reason (Vec.get t.ctx.exits exit_id))
         end);
       (* fragment-entry accounting for chained transfers *)
       if !taken && running () then begin
         match Tcache.Acc.frag_of_entry tc !next with
         | Some f -> enter_fragment t f
         | None -> ()
       end
     with
    | Memory.Fault _ | Unaligned_acc _ -> (
      (* The faulting V-ISA instruction does not commit here — the VM
         re-executes it by interpretation — so take back the one
         retirement credit this slot claimed for it. (Credits for earlier
         straightened-away instructions folded into the same slot did
         commit on the way in and stay counted.) The slot's whole static
         cycle cost is refunded — the interpreter re-execution is charged
         at full fidelity, cf. [faulted]. *)
      t.stats.alpha_retired <- t.stats.alpha_retired - 1;
      t.stats.st_cycles <- t.stats.st_cycles - Vec.get t.ctx.slot_cyc_ildp s;
      budget := !budget + 1;
      match apply_pei_map t s with
      | Some v_pc ->
        t.interp.pc <- v_pc;
        result := Some X_trap_recovered
      | None -> failwith "exec_acc: fault at a slot with no PEI entry"));
    (match sink with
    | Some (f : Machine.Ev.t -> unit) ->
      let tm = tmpl_of t s in
      f
        {
          tm with
          ea = !ea;
          taken = !taken;
          target =
            (match !result with
            | Some _ -> tm.pc + 4
            | None -> Tcache.Acc.addr_of tc !next);
        }
    | None -> ());
    if running () then begin
      if !budget <= 0 then result := Some X_fuel else slot := !next
    end
  done;
  Option.get !result

(* ---------- engine selection ---------- *)

(* The configured engine runs timed and untimed execution alike; both
   emit the same events under a sink. *)
let run ?sink ?(fuel = max_int) t ~entry : exit =
  match t.ctx.cfg.engine with
  | Config.Threaded -> (
    match sink with
    | None -> run_threaded ~fuel t ~entry
    | Some sink -> run_threaded_sink ~sink ~fuel t ~entry)
  | Config.Matched -> run_instrumented ?sink ~fuel t ~entry
