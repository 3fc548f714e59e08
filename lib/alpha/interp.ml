module Memory = Machine.Memory
module Ev = Machine.Ev

(* Alpha functional interpreter with precise trap semantics.

   This is both the reference executor (architected results that every other
   execution mode must match) and the interpretation stage of the DBT system.
   One [step] executes exactly one instruction and reports what happened; the
   DBT profiler and superblock builder drive it step by step, while [run]
   drives it to completion.

   PALcode provides a minimal deterministic "OS": HALT, PUTC and PUTINT. *)

type trap =
  | Mem_fault of { pc : int; addr : int; is_store : bool }
  | Unaligned of { pc : int; addr : int; width : int }
  | Illegal of { pc : int }

let pp_trap fmt = function
  | Mem_fault { pc; addr; is_store } ->
    Format.fprintf fmt "memory fault at pc=%#x addr=%#x (%s)" pc addr
      (if is_store then "store" else "load")
  | Unaligned { pc; addr; width } ->
    Format.fprintf fmt "unaligned %d-byte access at pc=%#x addr=%#x" width pc addr
  | Illegal { pc } -> Format.fprintf fmt "illegal instruction at pc=%#x" pc

(* PAL function codes of the simulated system. *)
let pal_halt = 0
let pal_putc = 1
let pal_putint = 2

type t = {
  regs : Bytes.t;
  (* 32 architected registers, register [r] in the 8 native-endian bytes
     at offset [8 * r]; r31 pinned to zero. The execution engine's compiled
     closures read and write these cells directly. *)
  mutable pc : int;
  mem : Memory.t;
  out : Buffer.t;
  mutable icount : int; (* dynamic V-ISA instructions executed *)
  code : Insn.t array; (* predecoded text section *)
  text_base : int;
  text_limit : int;
}

type exec_info = {
  xpc : int; (* address of the executed instruction *)
  insn : Insn.t;
  taken : bool; (* control transfer taken (false for non-control) *)
  next_pc : int;
  ea : int; (* effective address, 0 for non-memory *)
}

type step_result = Step of exec_info | Halted of int | Trapped of trap

let create prog =
  let mem = Memory.create () in
  Program.load prog mem;
  let code = Program.predecode prog in
  let regs = Bytes.make (32 * 8) '\000' in
  Bytes.set_int64_ne regs (8 * Reg.sp) (Int64.of_int Program.stack_top);
  {
    regs;
    pc = prog.entry;
    mem;
    out = Buffer.create 256;
    icount = 0;
    code;
    text_base = prog.text.base;
    text_limit = prog.text.base + (4 * Array.length code);
  }

(* Bounds-checked: a register number outside [0, 31] raises
   [Invalid_argument]. *)
let get t r = if r = Reg.zero then 0L else Bytes.get_int64_ne t.regs (8 * r)

let set t r v = if r <> Reg.zero then Bytes.set_int64_ne t.regs (8 * r) v

let output t = Buffer.contents t.out

let fetch t pc =
  if pc < t.text_base || pc >= t.text_limit || pc land 3 <> 0 then None
  else Some t.code.((pc - t.text_base) lsr 2)

let addr_mask = 0x3fffffffffff (* keep effective addresses positive ints *)

let ea_of t rb disp = (Int64.to_int (get t rb) + disp) land addr_mask

let align_ok addr width = addr land (width - 1) = 0

(* Execute the instruction [insn] sitting at [pc] against the architected
   state, returning the outcome. Shared with the DBT runtime, which needs to
   execute individual V-ISA instructions during trap recovery. *)
let exec_insn t pc (insn : Insn.t) : step_result =
  let info ?(taken = false) ?(ea = 0) next_pc =
    Step { xpc = pc; insn; taken; next_pc; ea }
  in
  let seq = pc + 4 in
  match insn with
  | Mem (Lda, ra, disp, rb) ->
    set t ra (Int64.add (get t rb) (Int64.of_int disp));
    info seq
  | Mem (Ldah, ra, disp, rb) ->
    set t ra (Int64.add (get t rb) (Int64.of_int (disp * 65536)));
    info seq
  | Mem (op, ra, disp, rb) -> (
    let addr = ea_of t rb disp in
    let width =
      match op with
      | Ldq | Stq -> 8
      | Ldl | Stl -> 4
      | Ldwu | Stw -> 2
      | _ -> 1
    in
    if not (align_ok addr width) then
      Trapped (Unaligned { pc; addr; width })
    else
      try
        (match op with
        | Ldq -> set t ra (Memory.get_i64 t.mem addr)
        | Ldl ->
          set t ra (Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 t.mem addr))))
        | Ldwu -> set t ra (Int64.of_int (Memory.get_u16 t.mem addr))
        | Ldbu -> set t ra (Int64.of_int (Memory.get_u8 t.mem addr))
        | Stq -> Memory.set_i64 t.mem addr (get t ra)
        | Stl -> Memory.set_u32 t.mem addr (Int64.to_int (Int64.logand (get t ra) 0xffffffffL))
        | Stw -> Memory.set_u16 t.mem addr (Int64.to_int (Int64.logand (get t ra) 0xffffL))
        | Stb -> Memory.set_u8 t.mem addr (Int64.to_int (Int64.logand (get t ra) 0xffL))
        | Lda | Ldah -> assert false);
        info ~ea:addr seq
      with Memory.Fault a ->
        Trapped (Mem_fault { pc; addr = a; is_store = Insn.is_store insn }))
  | Opr (op, ra, operand, rc) ->
    let b = match operand with Insn.Rb r -> get t r | Imm i -> Int64.of_int i in
    if Insn.is_cmov insn then begin
      if Insn.cond_true (Insn.cmov_cond op) (get t ra) then set t rc b;
      info seq
    end
    else begin
      set t rc (Insn.eval_op op (get t ra) b);
      info seq
    end
  | Br (ra, disp) ->
    set t ra (Int64.of_int seq);
    info ~taken:true (seq + (4 * disp))
  | Bsr (ra, disp) ->
    set t ra (Int64.of_int seq);
    info ~taken:true (seq + (4 * disp))
  | Bc (c, ra, disp) ->
    if Insn.cond_true c (get t ra) then info ~taken:true (seq + (4 * disp))
    else info seq
  | Jump (_, ra, rb) ->
    let target = Int64.to_int (get t rb) land addr_mask land lnot 3 in
    set t ra (Int64.of_int seq);
    info ~taken:true target
  | Call_pal f -> (
    match f with
    | _ when f = pal_halt -> Halted (Int64.to_int (get t Reg.v0) land 0xff)
    | _ when f = pal_putc ->
      Buffer.add_char t.out (Char.chr (Int64.to_int (get t (Reg.arg 0)) land 0xff));
      info seq
    | _ when f = pal_putint ->
      Buffer.add_string t.out (Int64.to_string (get t (Reg.arg 0)));
      Buffer.add_char t.out '\n';
      info seq
    | _ -> Trapped (Illegal { pc }))
  | Lta _ | Push_dras _ | Ret_dras _ | Call_xlate _ | Call_xlate_cond _
  | Set_vbase _ ->
    (* VM extensions never appear in V-ISA memory *)
    Trapped (Illegal { pc })

(* Execute one instruction at the current pc, advancing the state. *)
let step t : step_result =
  match fetch t t.pc with
  | None -> Trapped (Illegal { pc = t.pc })
  | Some insn -> (
    match exec_insn t t.pc insn with
    | Step i as r ->
      t.icount <- t.icount + 1;
      t.pc <- i.next_pc;
      r
    | r -> r)

type outcome = Exit of int | Fault of trap | Out_of_fuel

(* Run to completion (or [fuel] instructions). *)
let run ?(fuel = max_int) t =
  let rec go n =
    if n <= 0 then Out_of_fuel
    else
      match step t with
      | Step _ -> go (n - 1)
      | Halted c -> Exit c
      | Trapped tr -> Fault tr
  in
  go fuel

(* Run while emitting one {!Machine.Ev.t} per committed instruction — the
   trace source for the "original" out-of-order superscalar simulations.
   The static part of each text instruction's event is built once, up
   front; a commit copies it with its dynamic [ea], [taken] and [target]. *)
let run_ev ?(fuel = max_int) t ~(sink : Ev.t -> unit) =
  let tmpls =
    Array.mapi
      (fun k insn ->
        Trace.ev_of_exec ~pc:(t.text_base + (4 * k)) ~insn ~taken:false
          ~target:0 ~ea:0 ())
      t.code
  in
  let rec go n =
    if n <= 0 then Out_of_fuel
    else
      match step t with
      | Halted c -> Exit c
      | Trapped tr -> Fault tr
      | Step i ->
        let tmpl = tmpls.((i.xpc - t.text_base) lsr 2) in
        sink { tmpl with ea = i.ea; taken = i.taken; target = i.next_pc };
        go (n - 1)
  in
  go fuel

(* FNV-1a hash over the architected registers; used with the memory checksum
   to compare final states across execution modes. AT (r28) and GP (r29)
   are excluded: the OSF ABI reserves them between calls and the
   code-straightening DBT borrows them for chaining code, so no conforming
   guest holds live values there. *)
let reg_checksum t =
  let h = ref 0xcbf29ce484222325L in
  for r = 0 to 30 do
    if r <> Reg.at && r <> Reg.gp then begin
      h := Int64.logxor !h (get t r);
      h := Int64.mul !h 0x100000001b3L
    end
  done;
  !h
