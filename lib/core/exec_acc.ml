module Memory = Machine.Memory
module Vec = Machine.Vec
module I = Accisa.Insn

(* The accumulator-I-ISA backend of the execution engine ({!Engine}).

   Architected Alpha registers are shared with the interpreter's register
   file (the VM keeps one architected state); accumulators, their
   conditional-move predicate flags and the VM scratch registers belong to
   this backend. Everything that does not depend on the instruction set —
   statistics, trampolines, the fault path, fragment-entry accounting — is
   {!Engine.Make}'s. *)

open Engine

type insn = I.t
type ctx = Translate.ctx

(* This backend's register state, one [Bytes.t] of 8-byte native-endian
   cells: accumulator [a] at offset [8 * a], VM scratch register [g]
   (32..63) at [scratch_off g], and after them one conditional-move
   predicate flag byte per accumulator ([pred_off a]). *)
type regs = Bytes.t

let n_accs = 8
let scratch_off g = (8 * n_accs) + (8 * (g - 32))
let pred_off a = (8 * n_accs) + (8 * 32) + a

module Tc = Tcache.Acc

let name = "acc"
let tc (c : ctx) = c.tc
let cfg (c : ctx) = c.cfg
let exits (c : ctx) = c.exits
let slot_alpha (c : ctx) = c.slot_alpha
let slot_class (c : ctx) = c.slot_class
let cost (c : ctx) = c.cost
let unique_vpcs (c : ctx) = c.unique_vpcs
let dispatch_slot (c : ctx) = c.dispatch_slot
let set_dispatch_slot (c : ctx) s = c.dispatch_slot <- s
let translate = Translate.translate
let flush = Translate.flush
let wrap c = Persist.Snapshot.B_acc c

let unwrap : Persist.Snapshot.body -> _ = function
  | B_acc c -> Some c
  | B_straight _ -> None

let regs () = Bytes.make (pred_off n_accs) '\000'

(* Bounds-checked register access, for the matched step and the fault
   path; [t] is the engine. *)
let check_acc a =
  if a < 0 || a >= n_accs then invalid_arg "exec_acc: accumulator out of range"

let acc r a =
  check_acc a;
  Bytes.get_int64_ne r (8 * a)

let pred r a =
  check_acc a;
  Bytes.get r (pred_off a) <> '\000'

let set_pred r a p =
  check_acc a;
  Bytes.set r (pred_off a) (if p then '\001' else '\000')

let get_g t g =
  if g < 32 then Alpha.Interp.get t.interp g
  else if g < 64 then Bytes.get_int64_ne t.regs (scratch_off g)
  else invalid_arg "exec_acc: GPR out of range"

let set_g t g v =
  if g < 32 then Alpha.Interp.set t.interp g v
  else if g < 64 then Bytes.set_int64_ne t.regs (scratch_off g) v
  else invalid_arg "exec_acc: GPR out of range"

let src_val t : I.src -> int64 = function
  | Sacc a -> acc t.regs a
  | Sgpr g -> get_g t g
  | Simm v -> v

let write_dst t (d : I.dst) v =
  if d.dacc >= 0 then begin
    check_acc d.dacc;
    Bytes.set_int64_ne t.regs (8 * d.dacc) v;
    set_pred t.regs d.dacc false
  end;
  match d.gdst with Some g -> set_g t g v | None -> ()

(* The dispatch argument register holds the dynamic target V-address when
   the dispatch code misses. *)
let dispatch_target t = Int64.to_int (get_g t Translate.vr_arg)

(* Apply the PEI-table accumulator map at a PAL exit: architected values
   still living only in accumulators are written back to the register
   file. *)
let write_back interp regs map =
  Array.iter (fun (a, r) -> Alpha.Interp.set interp r (acc regs a)) map

(* ---------- threaded-code slot compilation ---------- *)

(* Compile-time operand and destination cells (see {!Engine.cell}). Every
   register, accumulator and predicate number is range-checked here, once
   per compiled slot, which is what lets the closures access cells
   unchecked. *)

(* GPR cell; [None] for r31, which reads as zero and discards writes. *)
let gpr_loc t g : cell option =
  if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
  if g = Alpha.Reg.zero then None
  else if g < 32 then Some (t.interp.regs, 8 * g)
  else Some (t.regs, scratch_off g)

let acc_cell t a : cell =
  check_acc a;
  (t.regs, 8 * a)

let src_cell t : I.src -> cell = function
  | Sacc a -> acc_cell t a
  | Sgpr g -> ( match gpr_loc t g with Some c -> c | None -> fresh_cell 0L)
  | Simm v -> fresh_cell v

let gpr_dst t g = match gpr_loc t g with Some c -> D_cell c | None -> D_none

let dst_shape t (d : I.dst) =
  let gpr = Option.bind d.gdst (gpr_loc t) in
  if d.dacc >= 0 then begin
    let x, i = acc_cell t d.dacc in
    match gpr with
    | Some c -> D_acc_gpr (x, i, pred_off d.dacc, c)
    | None -> D_acc (x, i, pred_off d.dacc)
  end
  else match gpr with Some c -> D_cell c | None -> D_none

let load_kind : I.width -> bool -> Engine.load = fun w signed ->
  match w, signed with
  | W8, _ -> Ld_q
  | W4, true -> Ld_l
  | W4, false -> Ld_lu
  | W2, _ -> Ld_wu
  | W1, _ -> Ld_bu

let store_kind : I.width -> Engine.store = function
  | W8 -> St_q
  | W4 -> St_l
  | W2 -> St_w
  | W1 -> St_b

(* Compile one cache slot to its work closure; per-slot statistics and the
   budget decrement live in the engine's trampoline (plain array reads), so
   the hot path pays exactly one indirect call per executed slot. *)
let compile (t : (ctx, regs) Engine.t) s : (ctx, regs) op =
  let tc = t.ctx.tc in
  let next = s + 1 in
  match Tc.get tc s with
  | I.Alu { op; d; a; b } ->
    alu op (dst_shape t d) (src_cell t a) (src_cell t b) ~next
  | I.Cmov_test { cond; d; cv; old } ->
    if d.dacc < 0 || d.dacc >= n_accs then
      invalid_arg "exec_acc: cmov-test without an accumulator destination";
    cmov_test cond (src_cell t cv) (src_cell t old) (dst_shape t d) ~next
  | I.Cmov_sel { d; p; nv } ->
    let pa = match p with I.Sacc a -> a | _ -> assert false in
    if pa < 0 || pa >= n_accs then
      invalid_arg "exec_acc: cmov-sel predicate out of range";
    select (t.regs, pred_off pa) (src_cell t nv) (acc_cell t pa)
      (dst_shape t d) ~next
  | I.Load { width; signed; d; base; disp } ->
    load (load_kind width signed) t.interp.mem (dst_shape t d)
      (src_cell t base) disp ~next
  | I.Store { width; value; base; disp } ->
    store (store_kind width) t.interp.mem (src_cell t value)
      (src_cell t base) disp ~next
  | I.Copy_to_gpr { g; a } ->
    let src = acc_cell t a in
    move (gpr_dst t g) src ~next
  | I.Copy_from_gpr { d; g } -> move (dst_shape t d) (src_cell t (Sgpr g)) ~next
  | I.Br { target } ->
    check_static t ~slot:s target;
    br ~target (Tc.frag_of_entry tc target)
  | I.Bc { cond; v; target } ->
    check_static t ~slot:s target;
    bc cond (src_cell t v) ~target (Tc.frag_of_entry tc target) ~next
  | I.Jmp_ind { v } -> jump (src_cell t v)
  | I.Lta { d; value } -> move (dst_shape t d) (fresh_cell value) ~next
  | I.Set_vbase _ -> fun _ -> next
  | I.Push_dras { g; v_ret; i_ret } ->
    push_dras (gpr_dst t g) ~v_ret ~i_ret
      ~ras:
        (match t.ctx.cfg.chaining with
        | Config.Sw_pred_ras -> true
        | Config.No_pred | Config.Sw_pred_no_ras -> false)
      ~next
  | I.Ret_dras { v } -> ret_dras (src_cell t v) ~next
  | I.Call_xlate { exit_id } -> (
    let code = ret_exit exit_id in
    (* architected values still in accumulators (PAL exits) *)
    match Tc.pei_at tc s with
    | Some pei ->
      let map = pei.Tcache.acc_map in
      fun t ->
        write_back t.interp t.regs map;
        code
    | None -> fun _ -> code)
  | I.Call_xlate_cond { cond; v; exit_id } ->
    exit_if cond (src_cell t v) ~code:(ret_exit exit_id) ~next

(* ---------- matched (instrumented) engine: one slot ---------- *)

let step (t : (ctx, regs) Engine.t) s =
  let r = t.regs in
  let mem = t.interp.mem in
  let next = s + 1 in
  match Tc.get t.ctx.tc s with
  | I.Alu { op; d; a; b } ->
    write_dst t d (Alpha.Insn.eval_op op (src_val t a) (src_val t b));
    next
  | I.Cmov_test { cond; d; cv; old } ->
    let p = Alpha.Insn.cond_true cond (src_val t cv) in
    write_dst t d (src_val t old);
    set_pred r d.dacc p;
    next
  | I.Cmov_sel { d; p; nv } ->
    let pa = match p with I.Sacc a -> a | _ -> assert false in
    write_dst t d (if pred r pa then src_val t nv else acc r pa);
    next
  | I.Load { width; signed; d; base; disp } ->
    let addr = (Int64.to_int (src_val t base) + disp) land addr_mask in
    t.ev_ea <- addr;
    if addr land (I.bytes_of_width width - 1) <> 0 then ret_fault
    else begin
      write_dst t d
        (match width, signed with
        | W8, _ -> Memory.get_i64 mem addr
        | W4, true -> Int64.of_int32 (Int32.of_int (Memory.get_u32 mem addr))
        | W4, false -> Int64.of_int (Memory.get_u32 mem addr)
        | W2, _ -> Int64.of_int (Memory.get_u16 mem addr)
        | W1, _ -> Int64.of_int (Memory.get_u8 mem addr));
      next
    end
  | I.Store { width; value; base; disp } ->
    let addr = (Int64.to_int (src_val t base) + disp) land addr_mask in
    t.ev_ea <- addr;
    if addr land (I.bytes_of_width width - 1) <> 0 then ret_fault
    else begin
      let v = src_val t value in
      (* the narrow setters store the value's low bytes *)
      (match width with
      | W8 -> Memory.set_i64 mem addr v
      | W4 -> Memory.set_u32 mem addr (Int64.to_int v)
      | W2 -> Memory.set_u16 mem addr (Int64.to_int v)
      | W1 -> Memory.set_u8 mem addr (Int64.to_int v));
      next
    end
  | I.Copy_to_gpr { g; a } ->
    set_g t g (acc r a);
    next
  | I.Copy_from_gpr { d; g } ->
    write_dst t d (get_g t g);
    next
  | I.Br { target } ->
    t.ev_taken <- true;
    target
  | I.Bc { cond; v; target } ->
    if Alpha.Insn.cond_true cond (src_val t v) then begin
      t.ev_taken <- true;
      target
    end
    else next
  | I.Jmp_ind { v } ->
    t.ev_taken <- true;
    check_slot t (Int64.to_int (src_val t v))
  | I.Lta { d; value } ->
    write_dst t d value;
    next
  | I.Set_vbase _ -> next
  | I.Push_dras { g; v_ret; i_ret } ->
    set_g t g (Int64.of_int v_ret);
    (* an unpatched push (return point untranslated at emission time)
       encodes its missing target as a negative immediate *)
    (match t.ctx.cfg.chaining with
    | Config.Sw_pred_ras ->
      Machine.Dual_ras.push t.dras ~v_addr:v_ret
        ~i_addr:(if i_ret >= 0 then Some i_ret else None)
    | Config.No_pred | Config.Sw_pred_no_ras -> ());
    next
  | I.Ret_dras { v } -> (
    let v_actual = Int64.to_int (src_val t v) in
    match Machine.Dual_ras.pop_verify t.dras ~v_actual with
    | Some i ->
      t.stats.ret_dras_hits <- t.stats.ret_dras_hits + 1;
      t.ev_taken <- true;
      check_slot t i
    | None ->
      (* stale/unpatched pair or empty stack: fall through to the dispatch
         path that follows every dual-RAS return *)
      t.stats.ret_dras_misses <- t.stats.ret_dras_misses + 1;
      next)
  | I.Call_xlate { exit_id } ->
    (* architected values still in accumulators (PAL exits) *)
    (match Tc.pei_at t.ctx.tc s with
    | Some pei -> write_back t.interp r pei.acc_map
    | None -> ());
    ret_exit exit_id
  | I.Call_xlate_cond { cond; v; exit_id } ->
    if Alpha.Insn.cond_true cond (src_val t v) then begin
      t.ev_taken <- true;
      ret_exit exit_id
    end
    else next

(* The static part of slot [s]'s timing event. *)
let tmpl (c : ctx) s =
  Accisa.Trace.ev
    ~strand_start:(Tc.starts_strand c.tc s)
    ~alpha_count:(Vec.get c.slot_alpha s)
    ~pc:(Tc.addr_of c.tc s) ~ea:0 ~taken:false ~target:0 (Tc.get c.tc s)
