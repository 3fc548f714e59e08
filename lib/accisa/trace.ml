module Ev = Machine.Ev

(* Conversion from executed I-ISA instructions to {!Machine.Ev.t} events.

   The DBT execution engine (core.Engine) builds each cache slot's event
   once with [ev], passing what only it knows: the slot's byte address in
   the translation cache, whether it starts a strand, and how many V-ISA
   instructions it retires. Each commit copies that event with its dynamic
   effective address, branch outcome and target (a byte address). A
   dual-RAS return's verification outcome is its [taken] flag. *)

let cls_of : Insn.t -> Ev.cls = function
  | Alu { op = Mull | Mulq | Umulh; _ } -> Mul
  | Alu _ | Cmov_test _ | Cmov_sel _ | Copy_to_gpr _ | Copy_from_gpr _
  | Lta _ | Set_vbase _ -> Alu
  | Load _ -> Load
  | Store _ -> Store
  | Bc _ | Call_xlate_cond _ -> Cond_br
  | Br _ | Jmp_ind _ | Call_xlate _ -> Jump
  | Push_dras _ -> Alu
  | Ret_dras _ -> Ret

let pred_of (i : Insn.t) : Ev.pred =
  match i with
  | Bc _ | Call_xlate_cond _ -> P_cond
  | Br _ | Call_xlate _ -> P_direct
  | Jmp_ind _ -> P_indirect
  | Push_dras _ -> P_dras_call
  | Ret_dras _ -> P_dras_ret
  | _ -> Not_control

let token = function
  | Insn.Sacc a -> Ev.acc_token a
  | Insn.Sgpr g -> g
  | Insn.Simm _ -> -1

(* Destination tokens: (primary, secondary, secondary-is-lazy). The
   accumulator write is the primary dependence-bearing destination; a second
   token appears for GPR updates. A modified-ISA [gdst] without [gopr]
   updates only the off-critical-path architected file and drains lazily —
   marked lazy so the ILDP timing model charges the drain latency to any
   (cross-fragment) consumer. *)
let dst_tokens (i : Insn.t) =
  match i with
  | Copy_to_gpr { g; _ } -> (g, -1, false)
  | Push_dras { g; _ } -> (g, -1, false)
  | _ -> (
    match Insn.dst_of i with
    | None -> (-1, -1, false)
    | Some d when d.dacc < 0 ->
      (* basic-ISA GPR-destination form: a plain GPR write *)
      (Option.value ~default:(-1) d.gdst, -1, false)
    | Some d ->
      let second = Option.value ~default:(-1) d.gdst in
      (Ev.acc_token d.dacc, second, (second >= 0 && not d.gopr)))

(* Steering identifier: the accumulator this instruction belongs to. *)
let steer_acc (i : Insn.t) =
  match Insn.acc_written i with
  | Some a -> a
  | None -> ( match Insn.acc_read i with Some a -> a | None -> -1)

let ev ?(strand_start = false) ?(alpha_count = 0) ~pc ~ea
    ~taken ~target (i : Insn.t) : Ev.t =
  let ss = Insn.srcs i in
  let nth n = match List.nth_opt ss n with Some s -> token s | None -> -1 in
  let dst, dst2, lazy_dst2 = dst_tokens i in
  {
    pc;
    size = Size.bytes i;
    cls = cls_of i;
    src1 = nth 0;
    src2 = nth 1;
    src3 = -1;
    dst;
    dst2;
    lazy_dst2;
    acc = steer_acc i;
    strand_start;
    ea;
    taken;
    target;
    pred = pred_of i;
    alpha_count;
  }
