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
let accs () = [||]

(* Dynamic dispatch-miss target lives in GP by convention. *)
let dispatch_target t = Int64.to_int (Alpha.Interp.get t.interp Straighten.gp)

(* ---------- threaded-code slot compilation ---------- *)

(* Compile-time operand location: r31 reads as zero and discards writes,
   every other register is a direct cell of the shared register array. *)
type loc = L_reg of int | L_const of int64

let check_reg r =
  if r < 0 || r > 31 then invalid_arg "exec_straight: register out of range"

let reg_loc r =
  check_reg r;
  if r = Alpha.Reg.zero then L_const 0L else L_reg r

let operand_loc = function
  | A.Rb r -> reg_loc r
  | A.Imm i -> L_const (Int64.of_int i)

(* Write cell; [None] when the write is architecturally discarded. *)
let wreg_loc r =
  check_reg r;
  if r = Alpha.Reg.zero then None else Some r

(* Closure forms, for the generic arms. *)
let loc_fn regs : loc -> unit -> int64 = function
  | L_reg i -> fun () -> Array.unsafe_get regs i
  | L_const v -> fun () -> v

let get_fn t r = loc_fn t.interp.regs (reg_loc r)

let set_fn t r : (int64 -> unit) option =
  match wreg_loc r with
  | None -> None
  | Some i ->
    let regs = t.interp.regs in
    Some (fun v -> Array.unsafe_set regs i v)

let wr_fn t r : int64 -> unit =
  match set_fn t r with Some f -> f | None -> fun _ -> ()

(* Alignment mask and width-specialised access of a memory opcode,
   resolved once per compiled slot (and per access in the matched step). *)
let amask_of : A.mem_op -> int = function
  | Ldq | Stq -> 7
  | Ldl | Stl -> 3
  | Ldwu | Stw -> 1
  | _ -> 0

let loader mem : A.mem_op -> int -> int64 = function
  | Ldq -> Memory.get_i64 mem
  | Ldl ->
    fun a -> Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 mem a)))
  | Ldwu -> fun a -> Int64.of_int (Memory.get_u16 mem a)
  | _ -> fun a -> Int64.of_int (Memory.get_u8 mem a)

let storer mem : A.mem_op -> int -> int64 -> unit = function
  | Stq -> Memory.set_i64 mem
  | Stl -> fun a v -> Memory.set_u32 mem a (Int64.to_int (Int64.logand v 0xffffffffL))
  | Stw -> fun a v -> Memory.set_u16 mem a (Int64.to_int (Int64.logand v 0xffffL))
  | _ -> fun a v -> Memory.set_u8 mem a (Int64.to_int (Int64.logand v 0xffL))

(* Compile one cache slot to its work closure (see Exec_acc). *)
let compile (t : (ctx, regs) Engine.t) s : (ctx, regs) op =
  let tc = t.ctx.tc in
  let insn = Tc.get tc s in
  let st = t.stats in
  let next = s + 1 in
  let regs = t.interp.regs in
  match insn with
  | A.Mem (((Lda | Ldah) as op), ra, disp, rb) -> (
    let d =
      Int64.of_int (match op with Ldah -> disp * 65536 | _ -> disp)
    in
    match (wreg_loc ra, reg_loc rb) with
    | None, _ -> fun _ -> next
    | Some ia, L_reg ib ->
      fun _ ->
        Array.unsafe_set regs ia (Int64.add (Array.unsafe_get regs ib) d);
        next
    | Some ia, L_const cb ->
      let v = Int64.add cb d in
      fun _ ->
        Array.unsafe_set regs ia v;
        next)
  | A.Mem (((Ldq | Ldl | Ldwu | Ldbu) as op), ra, disp, rb) -> (
    let amask = amask_of op and ld = loader t.interp.mem op in
    match (wreg_loc ra, reg_loc rb) with
    | Some ia, L_reg ib ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get regs ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match ld addr with
          | v ->
            Array.unsafe_set regs ia v;
            next
          | exception Memory.Fault _ -> ret_fault)
    | dst, base ->
      (* rare shapes (zero base / discarded destination); faults and
         alignment checks must still surface *)
      let gb = loc_fn regs base in
      let w =
        match dst with
        | Some i -> fun v -> Array.unsafe_set regs i v
        | None -> fun _ -> ()
      in
      fun t ->
        let addr = (Int64.to_int (gb ()) + disp) land addr_mask in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match ld addr with
          | v ->
            w v;
            next
          | exception Memory.Fault _ -> ret_fault))
  | A.Mem (((Stq | Stl | Stw | Stb) as op), ra, disp, rb) -> (
    let amask = amask_of op and st_ = storer t.interp.mem op in
    match (reg_loc ra, reg_loc rb) with
    | L_reg iv, L_reg ib ->
      fun t ->
        let addr =
          (Int64.to_int (Array.unsafe_get regs ib) + disp) land addr_mask
        in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match st_ addr (Array.unsafe_get regs iv) with
          | () -> next
          | exception Memory.Fault _ -> ret_fault)
    | value, base ->
      let gv = loc_fn regs value and gb = loc_fn regs base in
      fun t ->
        let addr = (Int64.to_int (gb ()) + disp) land addr_mask in
        t.ev_ea <- addr;
        if addr land amask <> 0 then ret_fault
        else (
          match st_ addr (gv ()) with
          | () -> next
          | exception Memory.Fault _ -> ret_fault))
  | A.Opr (op, ra, operand, rc) -> (
    if A.is_cmov insn then
      let c = Alpha.Insn.cond_fn (A.cmov_cond op) in
      let gra = get_fn t ra in
      let gb = loc_fn regs (operand_loc operand) in
      match wreg_loc rc with
      | None -> fun _ -> next
      | Some ic ->
        fun _ ->
          if c (gra ()) then Array.unsafe_set regs ic (gb ());
          next
    else
      let f = Alpha.Insn.eval_fn op in
      match (wreg_loc rc, reg_loc ra, operand_loc operand) with
      | None, _, _ -> fun _ -> next
      | Some ic, L_reg ia, L_reg ib ->
        fun _ ->
          Array.unsafe_set regs ic
            (f (Array.unsafe_get regs ia) (Array.unsafe_get regs ib));
          next
      | Some ic, L_reg ia, L_const cb ->
        fun _ ->
          Array.unsafe_set regs ic (f (Array.unsafe_get regs ia) cb);
          next
      | Some ic, L_const ca, L_reg ib ->
        fun _ ->
          Array.unsafe_set regs ic (f ca (Array.unsafe_get regs ib));
          next
      | Some ic, L_const ca, L_const cb ->
        let v = f ca cb in
        fun _ ->
          Array.unsafe_set regs ic v;
          next)
  | A.Br (_, target) -> (
    check_static t ~slot:s target;
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
  | A.Bc (c, ra, target) -> (
    check_static t ~slot:s target;
    let cf = Alpha.Insn.cond_fn c in
    match (Tc.frag_of_entry tc target, reg_loc ra) with
    | Some f, L_reg ia ->
      fun t ->
        if cf (Array.unsafe_get regs ia) then begin
          t.ev_taken <- true;
          enter_fragment t f;
          target
        end
        else next
    | Some f, L_const cv ->
      let tk = cf cv in
      fun t ->
        if tk then begin
          t.ev_taken <- true;
          enter_fragment t f;
          target
        end
        else next
    | None, L_reg ia ->
      fun t ->
        if cf (Array.unsafe_get regs ia) then begin
          t.ev_taken <- true;
          target
        end
        else next
    | None, L_const cv ->
      if cf cv then (fun t ->
        t.ev_taken <- true;
        target)
      else fun _ -> next)
  | A.Jump (_, _, rb) ->
    let grb = get_fn t rb in
    fun t ->
      t.ev_taken <- true;
      let n = check_slot t (Int64.to_int (grb ())) in
      enter_dynamic t n;
      n
  | A.Lta (ra, v) ->
    let w = wr_fn t ra in
    let v = Int64.of_int v in
    fun _ ->
      w v;
      next
  | A.Push_dras (ra, v_ret, i_ret) ->
    let w = wr_fn t ra in
    let vr = Int64.of_int v_ret in
    (match t.ctx.cfg.chaining with
    | Config.Sw_pred_ras ->
      (* negative [i_ret]: unpatched push, return point untranslated *)
      let i_opt = if i_ret >= 0 then Some i_ret else None in
      let dras = t.dras in
      fun _ ->
        w vr;
        Machine.Dual_ras.push dras ~v_addr:v_ret ~i_addr:i_opt;
        next
    | Config.No_pred | Config.Sw_pred_no_ras ->
      fun _ ->
        w vr;
        next)
  | A.Ret_dras rb ->
    let grb = get_fn t rb in
    let dras = t.dras in
    fun t -> (
      match
        Machine.Dual_ras.pop_verify dras ~v_actual:(Int64.to_int (grb ()))
      with
      | Some i ->
        st.ret_dras_hits <- st.ret_dras_hits + 1;
        t.ev_taken <- true;
        let i = check_slot t i in
        enter_dynamic t i;
        i
      | None ->
        st.ret_dras_misses <- st.ret_dras_misses + 1;
        next)
  | A.Set_vbase _ -> fun _ -> next
  | A.Call_xlate exit_id ->
    let code = ret_exit exit_id in
    fun _ -> code
  | A.Call_xlate_cond (c, ra, exit_id) ->
    let cf = Alpha.Insn.cond_fn c in
    let gra = get_fn t ra in
    let code = ret_exit exit_id in
    fun t ->
      if cf (gra ()) then begin
        t.ev_taken <- true;
        code
      end
      else next
  | A.Bsr _ | A.Call_pal _ ->
    fun _ -> failwith "exec_straight: untranslatable instruction in cache"

(* ---------- matched (instrumented) engine: one slot ---------- *)

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
  | A.Mem (op, ra, disp, rb) as insn ->
    let addr = (Int64.to_int (get rb) + disp) land addr_mask in
    t.ev_ea <- addr;
    if addr land amask_of op <> 0 then ret_fault
    else begin
      if A.is_load insn then set ra (loader mem op addr)
      else storer mem op addr (get ra);
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
