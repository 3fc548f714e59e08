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

type regs = {
  accs : int64 array;
  preds : bool array; (* conditional-move predicate flag per accumulator *)
  scratch : int64 array; (* VM registers 32..63 *)
}

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

let regs () =
  {
    accs = Array.make 8 0L;
    preds = Array.make 8 false;
    scratch = Array.make 32 0L;
  }

let accs r = r.accs

(* Register helpers of the matched step; [t] is the engine. *)
let get_g t g =
  if g < 32 then Alpha.Interp.get t.interp g else t.regs.scratch.(g - 32)

let set_g t g v =
  if g < 32 then Alpha.Interp.set t.interp g v
  else t.regs.scratch.(g - 32) <- v

let src_val t : I.src -> int64 = function
  | Sacc a -> t.regs.accs.(a)
  | Sgpr g -> get_g t g
  | Simm v -> v

let write_dst t (d : I.dst) v =
  if d.dacc >= 0 then begin
    t.regs.accs.(d.dacc) <- v;
    t.regs.preds.(d.dacc) <- false
  end;
  match d.gdst with Some g -> set_g t g v | None -> ()

(* The dispatch argument register holds the dynamic target V-address when
   the dispatch code misses. *)
let dispatch_target t = Int64.to_int (get_g t Translate.vr_arg)

(* Memory access specialised to its width, resolved once per compiled
   slot (and per access in the matched step). *)
let loader mem (width : I.width) signed : int -> int64 =
  match width, signed with
  | W8, _ -> Memory.get_i64 mem
  | W4, true ->
    fun a -> Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 mem a)))
  | W4, false -> fun a -> Int64.of_int (Memory.get_u32 mem a)
  | W2, _ -> fun a -> Int64.of_int (Memory.get_u16 mem a)
  | W1, _ -> fun a -> Int64.of_int (Memory.get_u8 mem a)

let storer mem (width : I.width) : int -> int64 -> unit =
  match width with
  | W8 -> Memory.set_i64 mem
  | W4 -> fun a v -> Memory.set_u32 mem a (Int64.to_int (Int64.logand v 0xffffffffL))
  | W2 -> fun a v -> Memory.set_u16 mem a (Int64.to_int (Int64.logand v 0xffffL))
  | W1 -> fun a v -> Memory.set_u8 mem a (Int64.to_int (Int64.logand v 0xffL))

(* Apply the PEI-table accumulator map at a PAL exit: architected values
   still living only in accumulators are written back to the register
   file. *)
let write_back interp accs map =
  Array.iter (fun (a, r) -> Alpha.Interp.set interp r accs.(a)) map

(* ---------- threaded-code slot compilation ---------- *)

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

let check_acc r a =
  if a < 0 || a >= Array.length r.accs then
    invalid_arg "exec_acc: accumulator out of range"

(* GPR cell; [None] for r31, which reads as zero and discards writes. *)
let gpr_loc t g =
  if g < 0 || g > 63 then invalid_arg "exec_acc: GPR out of range";
  if g = Alpha.Reg.zero then None
  else if g < 32 then Some (t.interp.regs, g)
  else Some (t.regs.scratch, g - 32)

let src_loc t : I.src -> loc = function
  | Sacc a ->
    check_acc t.regs a;
    L_arr (t.regs.accs, a)
  | Sgpr g -> (
    match gpr_loc t g with Some (x, i) -> L_arr (x, i) | None -> L_const 0L)
  | Simm v -> L_const v

let dst_shape t (d : I.dst) =
  let acc = d.dacc in
  let gpr = Option.bind d.gdst (gpr_loc t) in
  if acc >= 0 then begin
    check_acc t.regs acc;
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
  let accs = t.regs.accs and preds = t.regs.preds in
  match dst_shape t d with
  | W_acc acc ->
    fun v ->
      Array.unsafe_set accs acc v;
      Array.unsafe_set preds acc false
  | W_acc_gpr (acc, x, i) ->
    fun v ->
      Array.unsafe_set accs acc v;
      Array.unsafe_set preds acc false;
      Array.unsafe_set x i v
  | W_gpr (x, i) -> fun v -> Array.unsafe_set x i v
  | W_discard -> fun _ -> ()

(* Compile one cache slot to its work closure; per-slot statistics and the
   budget decrement live in the engine's trampoline (plain array reads), so
   the hot path pays exactly one indirect call per executed slot. *)
let compile (t : (ctx, regs) Engine.t) s : (ctx, regs) op =
  let tc = t.ctx.tc in
  let insn = Tc.get tc s in
  let st = t.stats in
  let next = s + 1 in
  let accs = t.regs.accs and preds = t.regs.preds in
  match insn with
  | I.Alu { op; d; a; b } -> (
    let f = Alpha.Insn.eval_fn op in
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
    let da = d.dacc in
    if da < 0 || da >= Array.length preds then
      invalid_arg "exec_acc: cmov-test without an accumulator destination";
    fun _ ->
      let p = c (gcv ()) in
      w (gold ());
      Array.unsafe_set preds da p;
      next
  | I.Cmov_sel { d; p; nv } ->
    let pa = match p with I.Sacc a -> a | _ -> assert false in
    if pa < 0 || pa >= Array.length preds then
      invalid_arg "exec_acc: cmov-sel predicate out of range";
    let gnv = src_fn t nv in
    let w = dst_fn t d in
    fun _ ->
      w (if Array.unsafe_get preds pa then gnv () else Array.unsafe_get accs pa);
      next
  | I.Load { width; signed; d; base; disp } -> (
    let mem = t.interp.mem in
    let amask = I.bytes_of_width width - 1 in
    let ld = loader mem width signed in
    match (dst_shape t d, src_loc t base) with
    | W_acc acc, L_arr (xb, ib) ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match ld addr with
          | v ->
            Array.unsafe_set accs acc v;
            Array.unsafe_set preds acc false;
            next
          | exception Memory.Fault _ -> ret_fault)
    | W_acc_gpr (acc, xd, id_), L_arr (xb, ib) ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match ld addr with
          | v ->
            Array.unsafe_set accs acc v;
            Array.unsafe_set preds acc false;
            Array.unsafe_set xd id_ v;
            next
          | exception Memory.Fault _ -> ret_fault)
    | W_gpr (xd, id_), L_arr (xb, ib) ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match ld addr with
          | v ->
            Array.unsafe_set xd id_ v;
            next
          | exception Memory.Fault _ -> ret_fault)
    | W_discard, L_arr (xb, ib) ->
      (* value discarded; address faults must still surface *)
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match ld addr with
          | _ -> next
          | exception Memory.Fault _ -> ret_fault)
    | _, L_const cb ->
      let addr = (Int64.to_int cb + disp) land addr_mask in
      let w = dst_fn t d in
      if addr land amask <> 0 then (fun t ->
        t.ev_ea <- addr;
        ret_fault)
      else
        fun t ->
          t.ev_ea <- addr;
          (match ld addr with
          | v ->
            w v;
            next
          | exception Memory.Fault _ -> ret_fault))
  | I.Store { width; value; base; disp } -> (
    let mem = t.interp.mem in
    let amask = I.bytes_of_width width - 1 in
    let st_ = storer mem width in
    match (src_loc t value, src_loc t base) with
    | L_arr (xv, iv), L_arr (xb, ib) ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match st_ addr (Array.unsafe_get xv iv) with
          | () -> next
          | exception Memory.Fault _ -> ret_fault)
    | L_const cv, L_arr (xb, ib) ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get xb ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match st_ addr cv with
          | () -> next
          | exception Memory.Fault _ -> ret_fault)
    | _, L_const cb ->
      let gv = src_fn t value in
      let addr = (Int64.to_int cb + disp) land addr_mask in
      if addr land amask <> 0 then (fun t ->
        t.ev_ea <- addr;
        ret_fault)
      else
        fun t ->
          t.ev_ea <- addr;
          (match st_ addr (gv ()) with
          | () -> next
          | exception Memory.Fault _ -> ret_fault))
  | I.Copy_to_gpr { g; a } -> (
    check_acc t.regs a;
    match gpr_set_fn t g with
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
    match Tc.frag_of_entry tc target with
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
    match (Tc.frag_of_entry tc target, src_loc t v) with
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
  | I.Set_vbase _ -> fun _ -> next
  | I.Push_dras { g; v_ret; i_ret } -> (
    let vr = Int64.of_int v_ret in
    let set = match gpr_set_fn t g with Some f -> f | None -> fun _ -> () in
    match t.ctx.cfg.chaining with
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
    match Tc.pei_at tc s with
    | Some pei ->
      let map = pei.Tcache.acc_map in
      fun t ->
        write_back t.interp accs map;
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

(* ---------- matched (instrumented) engine: one slot ---------- *)

let step (t : (ctx, regs) Engine.t) s =
  let r = t.regs in
  let next = s + 1 in
  match Tc.get t.ctx.tc s with
  | I.Alu { op; d; a; b } ->
    write_dst t d (Alpha.Insn.eval_op op (src_val t a) (src_val t b));
    next
  | I.Cmov_test { cond; d; cv; old } ->
    let p = Alpha.Insn.cond_true cond (src_val t cv) in
    write_dst t d (src_val t old);
    r.preds.(d.dacc) <- p;
    next
  | I.Cmov_sel { d; p; nv } ->
    let pa = match p with I.Sacc a -> a | _ -> assert false in
    write_dst t d (if r.preds.(pa) then src_val t nv else r.accs.(pa));
    next
  | I.Load { width; signed; d; base; disp } ->
    let addr = (Int64.to_int (src_val t base) + disp) land addr_mask in
    t.ev_ea <- addr;
    if addr land (I.bytes_of_width width - 1) <> 0 then ret_fault
    else begin
      write_dst t d (loader t.interp.mem width signed addr);
      next
    end
  | I.Store { width; value; base; disp } ->
    let addr = (Int64.to_int (src_val t base) + disp) land addr_mask in
    t.ev_ea <- addr;
    if addr land (I.bytes_of_width width - 1) <> 0 then ret_fault
    else begin
      storer t.interp.mem width addr (src_val t value);
      next
    end
  | I.Copy_to_gpr { g; a } ->
    set_g t g r.accs.(a);
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
    | Some pei -> write_back t.interp r.accs pei.acc_map
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
