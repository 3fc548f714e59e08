module Memory = Machine.Memory
module Vec = Machine.Vec
module A = Alpha.Insn

(* The straightened-Alpha backend of the execution engine ({!Engine}).

   Shares the interpreter's architected register file and memory, and has
   no register state of its own. Control convention inside the translation
   cache: Bc/Br immediate fields and the register consumed by Jump hold
   absolute slot indices (see {!Straighten}). *)

open Engine

type insn = A.t
type ctx = Straighten.ctx
type regs = unit

module Tc = Tcache.Straight

let name = "straight"
let tc (c : ctx) = c.tc
let cfg (c : ctx) = c.cfg
let exits (c : ctx) = c.exits
let slot_alpha (c : ctx) = c.slot_alpha
let slot_class (c : ctx) = c.slot_class
let cost (c : ctx) = c.cost
let unique_vpcs (c : ctx) = c.unique_vpcs
let dispatch_slot (c : ctx) = c.dispatch_slot
let set_dispatch_slot (c : ctx) s = c.dispatch_slot <- s
let translate = Straighten.translate
let flush = Straighten.flush
let wrap c = Persist.Snapshot.B_straight c

let unwrap : Persist.Snapshot.body -> _ = function
  | B_straight c -> Some c
  | B_acc _ -> None

let regs () = ()
let acc () _ = invalid_arg "exec_straight: no accumulators"

(* Dynamic dispatch-miss target lives in GP by convention. *)
let dispatch_target t = Int64.to_int (Alpha.Interp.get t.interp Straighten.gp)

(* ---------- threaded-code slot compilation ---------- *)

(* Compile-time operand cells (see {!Engine.cell}): register [r] of the
   shared architected file, range-checked here once per compiled slot. r31
   reads as zero and discards writes. *)
let check_reg r =
  if r < 0 || r > 31 then invalid_arg "exec_straight: register out of range"

let reg_cell t r : cell =
  check_reg r;
  if r = Alpha.Reg.zero then fresh_cell 0L else (t.interp.regs, 8 * r)

let operand_cell t = function
  | A.Rb r -> reg_cell t r
  | A.Imm i -> fresh_cell (Int64.of_int i)

let reg_dst t r =
  check_reg r;
  if r = Alpha.Reg.zero then D_none else D_cell (t.interp.regs, 8 * r)

let load_kind : A.mem_op -> Engine.load = function
  | Ldq -> Ld_q
  | Ldl -> Ld_l
  | Ldwu -> Ld_wu
  | _ -> Ld_bu

let store_kind : A.mem_op -> Engine.store = function
  | Stq -> St_q
  | Stl -> St_l
  | Stw -> St_w
  | _ -> St_b

(* Compile one cache slot to its work closure (see Exec_acc). *)
let compile (t : (ctx, regs) Engine.t) s : (ctx, regs) op =
  let tc = t.ctx.tc in
  let insn = Tc.get tc s in
  let next = s + 1 in
  let mem = t.interp.mem in
  match insn with
  | A.Mem (((Lda | Ldah) as op), ra, disp, rb) ->
    let d = Int64.of_int (match op with Ldah -> disp * 65536 | _ -> disp) in
    alu Addq (reg_dst t ra) (reg_cell t rb) (fresh_cell d) ~next
  | A.Mem (((Ldq | Ldl | Ldwu | Ldbu) as op), ra, disp, rb) ->
    load (load_kind op) mem (reg_dst t ra) (reg_cell t rb) disp ~next
  | A.Mem (((Stq | Stl | Stw | Stb) as op), ra, disp, rb) ->
    store (store_kind op) mem (reg_cell t ra) (reg_cell t rb) disp ~next
  | A.Opr (op, ra, operand, rc) ->
    if A.is_cmov insn then
      cmov (A.cmov_cond op) (reg_cell t ra) (operand_cell t operand)
        (reg_dst t rc) ~next
    else alu op (reg_dst t rc) (reg_cell t ra) (operand_cell t operand) ~next
  | A.Br (_, target) ->
    check_static t ~slot:s target;
    br ~target (Tc.frag_of_entry tc target)
  | A.Bc (c, ra, target) ->
    check_static t ~slot:s target;
    bc c (reg_cell t ra) ~target (Tc.frag_of_entry tc target) ~next
  | A.Jump (_, _, rb) -> jump (reg_cell t rb)
  | A.Lta (ra, v) -> move (reg_dst t ra) (fresh_cell (Int64.of_int v)) ~next
  | A.Push_dras (ra, v_ret, i_ret) ->
    push_dras (reg_dst t ra) ~v_ret ~i_ret
      ~ras:
        (match t.ctx.cfg.chaining with
        | Config.Sw_pred_ras -> true
        | Config.No_pred | Config.Sw_pred_no_ras -> false)
      ~next
  | A.Ret_dras rb -> ret_dras (reg_cell t rb) ~next
  | A.Set_vbase _ -> fun _ -> next
  | A.Call_xlate exit_id ->
    let code = ret_exit exit_id in
    fun _ -> code
  | A.Call_xlate_cond (c, ra, exit_id) ->
    exit_if c (reg_cell t ra) ~code:(ret_exit exit_id) ~next
  | A.Bsr _ | A.Call_pal _ ->
    fun _ -> failwith "exec_straight: untranslatable instruction in cache"

(* ---------- matched (instrumented) engine: one slot ---------- *)

let amask_of : A.mem_op -> int = function
  | Ldq | Stq -> 7
  | Ldl | Stl -> 3
  | Ldwu | Stw -> 1
  | _ -> 0

let step (t : (ctx, regs) Engine.t) s =
  let get r = Alpha.Interp.get t.interp r in
  let set r v = Alpha.Interp.set t.interp r v in
  let mem = t.interp.mem in
  let next = s + 1 in
  match Tc.get t.ctx.tc s with
  | A.Mem (Lda, ra, disp, rb) ->
    set ra (Int64.add (get rb) (Int64.of_int disp));
    next
  | A.Mem (Ldah, ra, disp, rb) ->
    set ra (Int64.add (get rb) (Int64.of_int (disp * 65536)));
    next
  | A.Mem (op, ra, disp, rb) ->
    let addr = (Int64.to_int (get rb) + disp) land addr_mask in
    t.ev_ea <- addr;
    if addr land amask_of op <> 0 then ret_fault
    else begin
      (* the narrow setters store the value's low bytes *)
      (match op with
      | Ldq -> set ra (Memory.get_i64 mem addr)
      | Ldl ->
        set ra (Int64.of_int32 (Int32.of_int (Memory.get_u32 mem addr)))
      | Ldwu -> set ra (Int64.of_int (Memory.get_u16 mem addr))
      | Ldbu -> set ra (Int64.of_int (Memory.get_u8 mem addr))
      | Stq -> Memory.set_i64 mem addr (get ra)
      | Stl -> Memory.set_u32 mem addr (Int64.to_int (get ra))
      | Stw -> Memory.set_u16 mem addr (Int64.to_int (get ra))
      | Stb -> Memory.set_u8 mem addr (Int64.to_int (get ra))
      | Lda | Ldah -> assert false);
      next
    end
  | A.Opr (op, ra, operand, rc) as insn ->
    let b = match operand with A.Rb r -> get r | Imm i -> Int64.of_int i in
    if A.is_cmov insn then begin
      if A.cond_true (A.cmov_cond op) (get ra) then set rc b
    end
    else set rc (A.eval_op op (get ra) b);
    next
  | A.Br (_, target) ->
    t.ev_taken <- true;
    target
  | A.Bc (c, ra, target) ->
    if A.cond_true c (get ra) then begin
      t.ev_taken <- true;
      target
    end
    else next
  | A.Jump (_, _, rb) ->
    t.ev_taken <- true;
    check_slot t (Int64.to_int (get rb))
  | A.Lta (ra, v) ->
    set ra (Int64.of_int v);
    next
  | A.Push_dras (ra, v_ret, i_ret) ->
    set ra (Int64.of_int v_ret);
    (* negative [i_ret]: unpatched push, return point untranslated *)
    (match t.ctx.cfg.chaining with
    | Config.Sw_pred_ras ->
      Machine.Dual_ras.push t.dras ~v_addr:v_ret
        ~i_addr:(if i_ret >= 0 then Some i_ret else None)
    | Config.No_pred | Config.Sw_pred_no_ras -> ());
    next
  | A.Ret_dras rb -> (
    let v_actual = Int64.to_int (get rb) in
    match Machine.Dual_ras.pop_verify t.dras ~v_actual with
    | Some i ->
      t.stats.ret_dras_hits <- t.stats.ret_dras_hits + 1;
      t.ev_taken <- true;
      check_slot t i
    | None ->
      t.stats.ret_dras_misses <- t.stats.ret_dras_misses + 1;
      next)
  | A.Set_vbase _ -> next
  | A.Call_xlate exit_id -> ret_exit exit_id
  | A.Call_xlate_cond (c, ra, exit_id) ->
    if A.cond_true c (get ra) then begin
      t.ev_taken <- true;
      ret_exit exit_id
    end
    else next
  | A.Bsr _ | A.Call_pal _ ->
    failwith "exec_straight: untranslatable instruction in cache"

(* The static part of slot [s]'s timing event. *)
let tmpl (c : ctx) s =
  Alpha.Trace.ev_of_exec
    ~alpha_count:(Vec.get c.slot_alpha s)
    ~pc:(Tc.addr_of c.tc s) ~insn:(Tc.get c.tc s) ~taken:false ~target:0
    ~ea:0 ()
