(* Alpha instruction set (integer subset) plus co-designed VM extensions.

   The conventional constructors cover the integer subset SPEC INT code
   needs: loads/stores of all widths, LDA/LDAH, the operate-format
   arithmetic/logical/shift/byte/multiply/conditional-move groups, direct
   branches, register-indirect jumps, and CALL_PAL. They encode and decode
   to/from the genuine Alpha 32-bit formats (see {!Encode}/{!Decode}).

   The VM extension constructors (LTA, PUSH-DRAS, RET-DRAS, CALL-XLATE,
   SET-VBASE) are the special instructions of Section 3.2 of the paper. They
   appear only in translated code held in the translation cache (never in
   simulated V-ISA memory), so they have no 32-bit memory encoding. *)

type reg = Reg.t

type mem_op = Ldq | Ldl | Ldwu | Ldbu | Stq | Stl | Stw | Stb | Lda | Ldah

type op3 =
  | Addl | Addq | Subl | Subq
  | S4addl | S4addq | S8addl | S8addq | S4subl | S4subq | S8subl | S8subq
  | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule | Cmpbge
  | And_ | Bic | Bis | Ornot | Xor | Eqv
  | Sll | Srl | Sra
  | Extbl | Extwl | Extll | Extql | Extwh | Extlh | Extqh
  | Insbl | Inswl | Insll | Insql
  | Mskbl | Mskwl | Mskll | Mskql
  | Zap | Zapnot
  | Mull | Mulq | Umulh
  | Sextb | Sextw
  | Ctpop | Ctlz | Cttz (* EV67 CIX count extensions *)
  | Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc

type operand = Rb of reg | Imm of int (* unsigned literal 0..255 *)

type cond = Eq | Ne | Lt | Ge | Le | Gt | Lbc | Lbs

type jkind = Jmp | Jsr | Ret

type t =
  | Mem of mem_op * reg * int * reg (* op ra, disp(rb); disp signed 16-bit *)
  | Opr of op3 * reg * operand * reg (* op ra, rb|#lit, rc *)
  | Br of reg * int (* ra <- pc+4; pc <- pc+4 + 4*disp *)
  | Bsr of reg * int
  | Bc of cond * reg * int (* conditional branch on ra *)
  | Jump of jkind * reg * reg (* ra <- pc+4; pc <- rb land ~3 *)
  | Call_pal of int
  (* --- co-designed VM extensions --- *)
  | Lta of reg * int (* load-embedded-target-address: ra <- addr *)
  | Push_dras of reg * int * int (* ra <- v_ret; dual-RAS push (v_ret,i_ret) *)
  | Ret_dras of reg (* dual-RAS return; V-address checked against rb *)
  | Call_xlate of int (* unconditional exit to the translator (exit id) *)
  | Call_xlate_cond of cond * reg * int (* exit if condition met (exit id) *)
  | Set_vbase of int (* record V-ISA address of the translation group *)

(* ---------- classification ---------- *)

let is_load = function
  | Mem ((Ldq | Ldl | Ldwu | Ldbu), _, _, _) -> true
  | _ -> false

let is_store = function
  | Mem ((Stq | Stl | Stw | Stb), _, _, _) -> true
  | _ -> false

let is_cmov = function
  | Opr
      ( (Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc),
        _, _, _ ) ->
    true
  | _ -> false

let is_control = function
  | Br _ | Bsr _ | Bc _ | Jump _ | Ret_dras _ | Call_xlate _
  | Call_xlate_cond _ ->
    true
  | _ -> false

let is_mul = function Opr ((Mull | Mulq | Umulh), _, _, _) -> true | _ -> false

(* Potentially excepting instruction: can raise a precise V-ISA trap.
   In this machine those are the memory accesses (unmapped-address faults)
   and CALL_PAL (system entry). *)
let is_pei = function
  | Mem ((Ldq | Ldl | Ldwu | Ldbu | Stq | Stl | Stw | Stb), _, _, _) -> true
  | Call_pal _ -> true
  | _ -> false

let cmov_cond = function
  | Cmoveq -> Eq | Cmovne -> Ne | Cmovlt -> Lt | Cmovge -> Ge
  | Cmovle -> Le | Cmovgt -> Gt | Cmovlbs -> Lbs | Cmovlbc -> Lbc
  | _ -> invalid_arg "cmov_cond"

(* Registers read. [Reg.zero] is included when it appears syntactically; the
   consumers filter it where it matters. *)
let srcs = function
  | Mem ((Lda | Ldah), _, _, rb) -> [ rb ]
  | Mem ((Ldq | Ldl | Ldwu | Ldbu), _, _, rb) -> [ rb ]
  | Mem (_, ra, _, rb) -> [ ra; rb ] (* store: value, base *)
  | Opr (op, ra, rb, rc) ->
    let base = match rb with Rb r -> [ ra; r ] | Imm _ -> [ ra ] in
    if is_cmov (Opr (op, ra, rb, rc)) then base @ [ rc ] else base
  | Br _ | Bsr _ -> []
  | Bc (_, ra, _) -> [ ra ]
  | Jump (_, _, rb) -> [ rb ]
  | Call_pal _ -> []
  | Lta _ -> []
  | Push_dras _ -> []
  | Ret_dras rb -> [ rb ]
  | Call_xlate _ -> []
  | Call_xlate_cond (_, ra, _) -> [ ra ]
  | Set_vbase _ -> []

(* Register written, if any ([Reg.zero] writes are discarded at execution). *)
let dest = function
  | Mem ((Ldq | Ldl | Ldwu | Ldbu | Lda | Ldah), ra, _, _) -> Some ra
  | Mem (_, _, _, _) -> None
  | Opr (_, _, _, rc) -> Some rc
  | Br (ra, _) | Bsr (ra, _) -> if ra = Reg.zero then None else Some ra
  | Bc _ -> None
  | Jump (_, ra, _) -> if ra = Reg.zero then None else Some ra
  | Call_pal _ -> None
  | Lta (ra, _) -> Some ra
  | Push_dras (ra, _, _) -> if ra = Reg.zero then None else Some ra
  | Ret_dras _ | Call_xlate _ | Call_xlate_cond _ | Set_vbase _ -> None

(* ---------- operator semantics ----------

   The reference semantics: the Alpha interpreter and the matched
   (instrumented) execution engine evaluate every operator here. The
   threaded engine's compiled closures inline their own copy
   ([Core.Engine.eval]/[holds]), which a property test holds equal to
   these functions on every operator and condition. *)

let sext32 v = Int64.of_int32 (Int64.to_int32 v)
let sext8 v = Int64.shift_right (Int64.shift_left v 56) 56
let sext16 v = Int64.shift_right (Int64.shift_left v 48) 48

let umulh a b =
  (* high 64 bits of the unsigned 128-bit product, by 32-bit limbs *)
  let mask = 0xffffffffL in
  let al = Int64.logand a mask and ah = Int64.shift_right_logical a 32 in
  let bl = Int64.logand b mask and bh = Int64.shift_right_logical b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical ll 32) (Int64.logand lh mask))
      (Int64.logand hl mask)
  in
  Int64.add
    (Int64.add hh (Int64.shift_right_logical mid 32))
    (Int64.add (Int64.shift_right_logical lh 32) (Int64.shift_right_logical hl 32))

let cond_true c v =
  match c with
  | Eq -> Int64.equal v 0L
  | Ne -> not (Int64.equal v 0L)
  | Lt -> Int64.compare v 0L < 0
  | Ge -> Int64.compare v 0L >= 0
  | Le -> Int64.compare v 0L <= 0
  | Gt -> Int64.compare v 0L > 0
  | Lbc -> Int64.logand v 1L = 0L
  | Lbs -> Int64.logand v 1L = 1L

let bool64 b = if b then 1L else 0L
let byte_shift b = Int64.to_int (Int64.logand b 7L) * 8

(* [eval_op op a b] for every non-conditional-move operate. Conditional moves
   are three-input and are handled by their decomposition (see core.Node). *)
let eval_op op a b =
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
  | Extbl -> Int64.logand (Int64.shift_right_logical a (byte_shift b)) 0xffL
  | Extwl -> Int64.logand (Int64.shift_right_logical a (byte_shift b)) 0xffffL
  | Extll ->
    Int64.logand (Int64.shift_right_logical a (byte_shift b)) 0xffffffffL
  | Extql -> Int64.shift_right_logical a (byte_shift b)
  | Extwh ->
    Int64.logand (Int64.shift_left a ((64 - byte_shift b) land 63)) 0xffffL
  | Extlh ->
    Int64.logand (Int64.shift_left a ((64 - byte_shift b) land 63)) 0xffffffffL
  | Extqh -> Int64.shift_left a ((64 - byte_shift b) land 63)
  | Insbl -> Int64.shift_left (Int64.logand a 0xffL) (byte_shift b)
  | Inswl -> Int64.shift_left (Int64.logand a 0xffffL) (byte_shift b)
  | Insll -> Int64.shift_left (Int64.logand a 0xffffffffL) (byte_shift b)
  | Insql -> Int64.shift_left a (byte_shift b)
  | Mskbl ->
    Int64.logand a (Int64.lognot (Int64.shift_left 0xffL (byte_shift b)))
  | Mskwl ->
    Int64.logand a (Int64.lognot (Int64.shift_left 0xffffL (byte_shift b)))
  | Mskll ->
    Int64.logand a (Int64.lognot (Int64.shift_left 0xffffffffL (byte_shift b)))
  | Mskql ->
    Int64.logand a (Int64.lognot (Int64.shift_left (-1L) (byte_shift b)))
  | Cmpbge ->
    (* per-byte unsigned a >= b, result mask in the low 8 bits *)
    let m = ref 0L in
    for i = 0 to 7 do
      let ba = Int64.logand (Int64.shift_right_logical a (8 * i)) 0xffL in
      let bb = Int64.logand (Int64.shift_right_logical b (8 * i)) 0xffL in
      if Int64.unsigned_compare ba bb >= 0 then
        m := Int64.logor !m (Int64.of_int (1 lsl i))
    done;
    !m
  | Zap ->
    let msk = Int64.to_int (Int64.logand b 0xffL) in
    let keep = ref 0L in
    for i = 0 to 7 do
      if msk land (1 lsl i) = 0 then
        keep := Int64.logor !keep (Int64.shift_left 0xffL (i * 8))
    done;
    Int64.logand a !keep
  | Zapnot ->
    let m = Int64.to_int (Int64.logand b 0xffL) in
    let keep = ref 0L in
    for i = 0 to 7 do
      if m land (1 lsl i) <> 0 then
        keep := Int64.logor !keep (Int64.shift_left 0xffL (i * 8))
    done;
    Int64.logand a !keep
  | Mull -> sext32 (Int64.mul a b)
  | Mulq -> Int64.mul a b
  | Umulh -> umulh a b
  | Sextb -> sext8 b
  | Sextw -> sext16 b
  | Ctpop ->
    let n = ref 0 and v = ref b in
    for _ = 0 to 63 do
      n := !n + Int64.to_int (Int64.logand !v 1L);
      v := Int64.shift_right_logical !v 1
    done;
    Int64.of_int !n
  | Ctlz ->
    let n = ref 0 and v = ref b in
    (try
       for _ = 0 to 63 do
         if Int64.logand !v Int64.min_int <> 0L then raise Exit;
         incr n;
         v := Int64.shift_left !v 1
       done
     with Exit -> ());
    Int64.of_int !n
  | Cttz ->
    let n = ref 0 and v = ref b in
    (try
       for _ = 0 to 63 do
         if Int64.logand !v 1L <> 0L then raise Exit;
         incr n;
         v := Int64.shift_right_logical !v 1
       done
     with Exit -> ());
    Int64.of_int !n
  | Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc ->
    invalid_arg "eval_op: conditional move needs three operands"
