(* ISA-agnostic committed-instruction events.

   The functional side of the simulator (the Alpha interpreter, or the DBT
   runtime executing translated code) emits one event per committed
   instruction. Timing models (uarch.Ooo, uarch.Ildp) consume the stream and
   charge cycles; they never re-execute semantics. Register identity is
   encoded as small integer tokens so dependence tracking is a flat array
   lookup:

     0..63        general-purpose registers (0..31 architected Alpha state,
                  32..63 VM scratch registers in translated code)
     64..64+k     accumulators (ILDP I-ISA)

   [-1] means "no register".

   Every field except [ea], [taken] and [target] is static per instruction:
   it depends on the instruction and where it sits, not on the run. The
   event sources therefore build that part once per instruction (a
   template) and emit [{ tmpl with ea; taken; target }] per commit. Sinks
   must treat events as immutable values: they may keep an event, but must
   assume nothing about its physical identity. *)

type cls =
  | Alu        (* single-cycle integer op *)
  | Mul        (* integer multiply *)
  | Load
  | Store
  | Cond_br
  | Jump       (* unconditional direct or register-indirect jump *)
  | Call       (* call that pushes a return address *)
  | Ret

(* How the front end predicts this instruction, driving the misprediction
   accounting in the timing models. *)
type pred =
  | Not_control
  | P_cond            (* direction: g-share; target: embedded/BTB *)
  | P_direct          (* unconditional direct: BTB (misfetch when absent) *)
  | P_indirect        (* register indirect: BTB *)
  | P_ras_call        (* direct call: pushes the conventional RAS *)
  | P_ras_call_ind    (* register-indirect call (JSR): RAS push + BTB target *)
  | P_ras_ret         (* pops the conventional RAS *)
  | P_dras_call       (* pushes the dual-address RAS *)
  | P_dras_ret        (* dual-address RAS return: it transfers control
                         exactly when the pair verifies, so a hit is
                         [taken] and a miss falls through *)

type t = {
  pc : int;            (* byte address of this instruction (I- or V-space) *)
  size : int;          (* encoded size in bytes, for I-cache modelling *)
  cls : cls;
  src1 : int;          (* register tokens, -1 if unused *)
  src2 : int;
  src3 : int;
  dst : int;
  dst2 : int;          (* second destination (e.g. accumulator + GPR), -1 *)
  lazy_dst2 : bool;    (* dst2 is an off-critical-path architected-file
                          update that drains lazily (modified-ISA gdst
                          without an operational write) *)
  acc : int;           (* ILDP steering id (accumulator/strand), -1 if none *)
  strand_start : bool; (* first instruction of a strand: steer to a new PE *)
  ea : int;            (* effective address for Load/Store *)
  taken : bool;        (* control outcome *)
  target : int;        (* actual next pc *)
  pred : pred;
  alpha_count : int;   (* V-ISA instructions retired by this event *)
}

let gpr r = r
let acc_token a = 64 + a

(* Total distinct register tokens; sized for 64 GPRs + 8 accumulators. *)
let token_count = 64 + 8

let default =
  {
    pc = 0;
    size = 4;
    cls = Alu;
    src1 = -1;
    src2 = -1;
    src3 = -1;
    dst = -1;
    dst2 = -1;
    lazy_dst2 = false;
    acc = -1;
    strand_start = false;
    ea = 0;
    taken = false;
    target = 0;
    pred = Not_control;
    alpha_count = 1;
  }

let is_mem e = match e.cls with Load | Store -> true | _ -> false

let is_control e =
  match e.cls with Cond_br | Jump | Call | Ret -> true | _ -> false
