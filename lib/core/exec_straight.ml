module Memory = Machine.Memory
module Vec = Machine.Vec
module A = Alpha.Insn

(* Functional execution engines for straightened-Alpha translated code.

   Shares the interpreter's architected register file and memory. Control
   convention inside the translation cache: Bc/Br immediate fields and the
   register consumed by Jump hold absolute slot indices (see
   {!Straighten}).

   Mirrors {!Exec_acc}: {!Config.t.engine} picks the threaded-code engine
   (slots compiled to specialized closures, tight trampoline; a second
   trampoline emits events when a timing sink is attached) or the
   instrumented variant-match engine ([Matched], the reference), for timed
   and untimed runs alike. *)

type stats = {
  mutable i_exec : int;
  by_class : int array;
  mutable alpha_retired : int;
  mutable st_cycles : int;
  (* static cycle cost charged (fast-forward tier): sum of the executed
     slots' translation-time Ooo annotations, 0 without an annotator *)
  mutable frag_enters : int;
  mutable ret_dras_hits : int;
  mutable ret_dras_misses : int;
}

type t = {
  ctx : Straighten.ctx;
  interp : Alpha.Interp.t;
  dras : Machine.Dual_ras.t;
  mutable vbase : int;
  stats : stats;
  (* --- threaded-code engine state (see Exec_acc) --- *)
  mutable ops : op array;
  mutable alphas : int array;
  mutable classes : int array;
  mutable cycs : int array; (* per-slot static Ooo cycles, ops-parallel *)
  mutable ops_len : int;
  mutable ops_gen : int;
  mutable patch_mark : int;
  mutable budget : int;
  mutable ev_ea : int; (* dynamic event fields, see Exec_acc *)
  mutable ev_taken : bool;
  tmpls : Machine.Ev.t Tcache.Straight.shadow; (* see Exec_acc *)
}

and op = t -> int

type exit =
  | X_reason of Exitr.reason
  | X_trap_recovered
  | X_fuel

let create ctx interp =
  Translate.map_vm_memory interp.Alpha.Interp.mem;
  {
    ctx;
    interp;
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
    tmpls = Tcache.Straight.shadow Machine.Ev.default;
  }

(* Dynamic dispatch-miss target lives in GP by convention. *)
let dispatch_target t = Int64.to_int (Alpha.Interp.get t.interp Straighten.gp)

let addr_mask = 0x3fffffffffff

exception Unaligned_s of int

(* ---------- threaded-code engine: slot compilation ---------- *)

let ret_trap = -1
let ret_exit exit_id = -(exit_id + 2)

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
let get_fn t r : unit -> int64 =
  match reg_loc r with
  | L_const v -> fun () -> v
  | L_reg i ->
    let regs = t.interp.regs in
    fun () -> Array.unsafe_get regs i

let set_fn t r : (int64 -> unit) option =
  match wreg_loc r with
  | None -> None
  | Some i ->
    let regs = t.interp.regs in
    Some (fun v -> Array.unsafe_set regs i v)

let wr_fn t r : int64 -> unit =
  match set_fn t r with Some f -> f | None -> fun _ -> ()

(* Cold fault path; see the matching comment in Exec_acc. The whole
   static cycle cost of the slot is refunded (unlike the single
   retirement credit): the interpreter re-execution is charged at full
   fidelity by the dynamic-correction path. *)
let faulted t s =
  t.stats.alpha_retired <- t.stats.alpha_retired - 1;
  t.budget <- t.budget + 1;
  t.stats.st_cycles <- t.stats.st_cycles - Array.unsafe_get t.cycs s;
  match Tcache.Straight.pei_at t.ctx.tc s with
  | Some pei ->
    t.interp.pc <- pei.Tcache.pei_v_pc;
    ret_trap
  | None -> failwith "exec_straight: fault at a slot with no PEI entry"

(* Single source of truth for fragment-entry accounting (see Exec_acc). *)
let enter_fragment t (f : Tcache.frag) =
  f.exec_count <- f.exec_count + 1;
  t.stats.frag_enters <- t.stats.frag_enters + 1

let enter_dynamic t target =
  let tc = t.ctx.tc in
  let id = Tcache.Straight.frag_id_of_entry tc target in
  if id >= 0 then enter_fragment t (Tcache.Straight.frag_by_id tc id)

let check_slot t n =
  if n < 0 || n >= t.ops_len then
    invalid_arg "exec_straight: indirect transfer to an invalid slot";
  n

let check_static t ~slot target =
  if target < 0 || target >= Tcache.Straight.n_slots t.ctx.tc then
    invalid_arg
      (Printf.sprintf "exec_straight: slot %d branches to invalid slot %d"
         slot target)

(* Compile one cache slot to its work closure; per-slot statistics and the
   budget decrement live in the trampoline (see Exec_acc). *)
let compile t s : op =
  let tc = t.ctx.tc in
  let insn = Tcache.Straight.get tc s in
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
      let mem = t.interp.mem in
      let amask =
        match op with Ldq -> 7 | Ldl -> 3 | Ldwu -> 1 | _ -> 0
      in
      let ld : int -> int64 =
        match op with
        | Ldq -> Memory.get_i64 mem
        | Ldl ->
          fun a ->
            Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 mem a)))
        | Ldwu -> fun a -> Int64.of_int (Memory.get_u16 mem a)
        | _ -> fun a -> Int64.of_int (Memory.get_u8 mem a)
      in
      match (wreg_loc ra, reg_loc rb) with
      | Some ia, L_reg ib ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get regs ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match ld addr with
            | v ->
              Array.unsafe_set regs ia v;
              next
            | exception Memory.Fault _ -> faulted t s)
      | dst, base ->
        (* rare shapes (zero base / discarded destination); faults and
           alignment checks must still surface *)
        let gb =
          match base with
          | L_reg i -> fun () -> Array.unsafe_get regs i
          | L_const v -> fun () -> v
        in
        let w =
          match dst with
          | Some i -> fun v -> Array.unsafe_set regs i v
          | None -> fun _ -> ()
        in
        fun t ->
          let addr = (Int64.to_int (gb ()) + disp) land addr_mask in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match ld addr with
            | v ->
              w v;
              next
            | exception Memory.Fault _ -> faulted t s))
    | A.Mem (((Stq | Stl | Stw | Stb) as op), ra, disp, rb) -> (
      let mem = t.interp.mem in
      let amask = match op with Stq -> 7 | Stl -> 3 | Stw -> 1 | _ -> 0 in
      let st_ : int -> int64 -> unit =
        match op with
        | Stq -> Memory.set_i64 mem
        | Stl ->
          fun a v ->
            Memory.set_u32 mem a (Int64.to_int (Int64.logand v 0xffffffffL))
        | Stw ->
          fun a v -> Memory.set_u16 mem a (Int64.to_int (Int64.logand v 0xffffL))
        | _ ->
          fun a v -> Memory.set_u8 mem a (Int64.to_int (Int64.logand v 0xffL))
      in
      match (reg_loc ra, reg_loc rb) with
      | L_reg iv, L_reg ib ->
        fun t ->
          let addr =
            (Int64.to_int (Array.unsafe_get regs ib) + disp) land addr_mask
          in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match st_ addr (Array.unsafe_get regs iv) with
            | () -> next
            | exception Memory.Fault _ -> faulted t s)
      | value, base ->
        let gv =
          match value with
          | L_reg i -> fun () -> Array.unsafe_get regs i
          | L_const v -> fun () -> v
        in
        let gb =
          match base with
          | L_reg i -> fun () -> Array.unsafe_get regs i
          | L_const v -> fun () -> v
        in
        fun t ->
          let addr = (Int64.to_int (gb ()) + disp) land addr_mask in
          t.ev_ea <- addr;
          if addr land amask <> 0 then faulted t s
          else (
            match st_ addr (gv ()) with
            | () -> next
            | exception Memory.Fault _ -> faulted t s))
    | A.Opr (op, ra, operand, rc) -> (
      if A.is_cmov insn then
        let c = Alpha.Insn.cond_fn (A.cmov_cond op) in
        let gra = get_fn t ra in
        let gb : unit -> int64 =
          match operand_loc operand with
          | L_reg i -> fun () -> Array.unsafe_get regs i
          | L_const v -> fun () -> v
        in
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
      match Tcache.Straight.frag_of_entry tc target with
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
      match (Tcache.Straight.frag_of_entry tc target, reg_loc ra) with
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
    | A.Set_vbase v ->
      fun t ->
        t.vbase <- v;
        next
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

let uncompiled_op : op = fun _ -> failwith "exec_straight: uncompiled slot"

(* Telemetry: same names as Exec_acc (one VM owns one engine kind). *)
let c_compiles = Obs.counter "engine.compiled_slots"
let c_replays = Obs.counter "engine.patch_replays"
let sp_compile = Obs.span "compile_to_closure"

let sync_ops t =
  let tc = t.ctx.tc in
  let gen = Tcache.Straight.generation tc in
  if t.ops_gen <> gen then begin
    t.ops <- [||];
    t.ops_len <- 0;
    t.patch_mark <- 0;
    t.ops_gen <- gen
  end;
  let n = Tcache.Straight.n_slots tc in
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
  let m = Tcache.Straight.patch_count tc in
  if n > t.ops_len || m > t.patch_mark then
    Obs.with_span sp_compile (fun () ->
        Obs.bump c_compiles (n - t.ops_len);
        for sl = t.ops_len to n - 1 do
          Array.unsafe_set t.ops sl (compile t sl);
          Array.unsafe_set t.alphas sl (Vec.get t.ctx.slot_alpha sl);
          Array.unsafe_set t.classes sl (Vec.get t.ctx.slot_class sl);
          Array.unsafe_set t.cycs sl (Vec.get t.ctx.slot_cyc_ooo sl)
        done;
        t.ops_len <- n;
        for i = t.patch_mark to m - 1 do
          let sl = Tcache.Straight.patched_slot tc i in
          if sl < n then begin
            t.ops.(sl) <- compile t sl;
            Obs.bump c_replays 1
          end
        done;
        t.patch_mark <- m)

(* Warm start: pay closure compilation for every restored cache slot up
   front instead of on the first [run] after a snapshot load. *)
let prewarm t = sync_ops t

let run_threaded ?(fuel = max_int) t ~entry : exit =
  sync_ops t;
  if entry < 0 || entry >= t.ops_len then
    invalid_arg "exec_straight: entry is not a translated slot";
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
let tmpl_of t ~pc s =
  let cells = t.tmpls.Tcache.Straight.cells in
  let tm = cells.(s) in
  if tm != t.tmpls.empty then tm
  else begin
    let tm =
      Alpha.Trace.ev_of_exec
        ~alpha_count:(Vec.get t.ctx.slot_alpha s)
        ~pc ~insn:(Tcache.Straight.get t.ctx.tc s) ~taken:false ~target:0
        ~ea:0 ()
    in
    cells.(s) <- tm;
    tm
  end

(* [run_threaded] with a timing sink; see [Exec_acc.run_threaded_sink].
   Every straightened slot is 4 bytes, so slot [n] sits at [base + 4n]. *)
let run_threaded_sink ~sink ?(fuel = max_int) t ~entry : exit =
  sync_ops t;
  if entry < 0 || entry >= t.ops_len then
    invalid_arg "exec_straight: entry is not a translated slot";
  let tc = t.ctx.tc in
  (* the cache does not change while this loop runs *)
  Tcache.Straight.sync_shadow tc t.tmpls;
  let base = Tcache.Straight.addr_of tc 0 in
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
    let (tm : Machine.Ev.t) = tmpl_of t ~pc:(base + (4 * slot)) slot in
    sink
      {
        tm with
        ea = t.ev_ea;
        taken = t.ev_taken;
        target = (if n >= 0 then base + (4 * n) else tm.pc + 4);
      };
    if n >= 0 then if t.budget <= 0 then X_fuel else loop n
    else if n = ret_trap then X_trap_recovered
    else X_reason (Vec.get t.ctx.exits (-n - 2))
  in
  loop entry

(* ---------- instrumented (match-based) engine ---------- *)

let run_instrumented ?sink ?(fuel = max_int) t ~entry : exit =
  let tc = t.ctx.tc in
  let get r = Alpha.Interp.get t.interp r in
  let set r v = Alpha.Interp.set t.interp r v in
  let mem = t.interp.mem in
  let budget = ref fuel in
  (* the cache does not change while this loop runs *)
  if Option.is_some sink then Tcache.Straight.sync_shadow tc t.tmpls;
  (match Tcache.Straight.frag_of_entry tc entry with
  | Some f -> enter_fragment t f
  | None -> ());
  let slot = ref entry in
  let result = ref None in
  let running () = match !result with None -> true | Some _ -> false in
  while running () do
    let s = !slot in
    let insn = Tcache.Straight.get tc s in
    let alpha = Vec.get t.ctx.slot_alpha s in
    t.stats.i_exec <- t.stats.i_exec + 1;
    t.stats.by_class.(Vec.get t.ctx.slot_class s) <-
      t.stats.by_class.(Vec.get t.ctx.slot_class s) + 1;
    t.stats.alpha_retired <- t.stats.alpha_retired + alpha;
    t.stats.st_cycles <- t.stats.st_cycles + Vec.get t.ctx.slot_cyc_ooo s;
    budget := !budget - alpha;
    let next = ref (s + 1) in
    let taken = ref false in
    let ea = ref 0 in
    (try
       (match insn with
       | A.Mem (Lda, ra, disp, rb) -> set ra (Int64.add (get rb) (Int64.of_int disp))
       | A.Mem (Ldah, ra, disp, rb) ->
         set ra (Int64.add (get rb) (Int64.of_int (disp * 65536)))
       | A.Mem (op, ra, disp, rb) ->
         let addr = (Int64.to_int (get rb) + disp) land addr_mask in
         ea := addr;
         let width =
           match op with
           | Ldq | Stq -> 8
           | Ldl | Stl -> 4
           | Ldwu | Stw -> 2
           | _ -> 1
         in
         if addr land (width - 1) <> 0 then raise (Unaligned_s addr);
         (match op with
         | Ldq -> set ra (Memory.get_i64 mem addr)
         | Ldl ->
           set ra (Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 mem addr))))
         | Ldwu -> set ra (Int64.of_int (Memory.get_u16 mem addr))
         | Ldbu -> set ra (Int64.of_int (Memory.get_u8 mem addr))
         | Stq -> Memory.set_i64 mem addr (get ra)
         | Stl -> Memory.set_u32 mem addr (Int64.to_int (Int64.logand (get ra) 0xffffffffL))
         | Stw -> Memory.set_u16 mem addr (Int64.to_int (Int64.logand (get ra) 0xffffL))
         | Stb -> Memory.set_u8 mem addr (Int64.to_int (Int64.logand (get ra) 0xffL))
         | Lda | Ldah -> assert false)
       | A.Opr (op, ra, operand, rc) ->
         let b = match operand with A.Rb r -> get r | Imm i -> Int64.of_int i in
         if A.is_cmov insn then begin
           if A.cond_true (A.cmov_cond op) (get ra) then set rc b
         end
         else set rc (A.eval_op op (get ra) b)
       | A.Br (_, target) ->
         taken := true;
         next := target
       | A.Bc (c, ra, target) ->
         if A.cond_true c (get ra) then begin
           taken := true;
           next := target
         end
       | A.Jump (_, _, rb) ->
         taken := true;
         next := Int64.to_int (get rb)
       | A.Lta (ra, v) -> set ra (Int64.of_int v)
       | A.Push_dras (ra, v_ret, i_ret) -> (
         set ra (Int64.of_int v_ret);
         (* negative [i_ret]: unpatched push, return point untranslated *)
         match t.ctx.cfg.chaining with
         | Config.Sw_pred_ras ->
           Machine.Dual_ras.push t.dras ~v_addr:v_ret
             ~i_addr:(if i_ret >= 0 then Some i_ret else None)
         | Config.No_pred | Config.Sw_pred_no_ras -> ())
       | A.Ret_dras rb -> (
         let v_actual = Int64.to_int (get rb) in
         match Machine.Dual_ras.pop_verify t.dras ~v_actual with
         | Some i ->
           t.stats.ret_dras_hits <- t.stats.ret_dras_hits + 1;
           taken := true;
           next := i
         | None -> t.stats.ret_dras_misses <- t.stats.ret_dras_misses + 1)
       | A.Set_vbase v -> t.vbase <- v
       | A.Call_xlate exit_id ->
         result := Some (X_reason (Vec.get t.ctx.exits exit_id))
       | A.Call_xlate_cond (c, ra, exit_id) ->
         if A.cond_true c (get ra) then begin
           taken := true;
           result := Some (X_reason (Vec.get t.ctx.exits exit_id))
         end
       | A.Bsr _ | A.Call_pal _ ->
         failwith "exec_straight: untranslatable instruction in cache");
       if !taken && running () then begin
         match Tcache.Straight.frag_of_entry tc !next with
         | Some f -> enter_fragment t f
         | None -> ()
       end
     with
    | Memory.Fault _ | Unaligned_s _ -> (
      (* the faulting V-ISA instruction does not commit here (the VM
         re-executes it by interpretation) — take back its retirement
         credit and the slot's whole static cycle cost; see the matching
         comment in Exec_acc *)
      t.stats.alpha_retired <- t.stats.alpha_retired - 1;
      t.stats.st_cycles <- t.stats.st_cycles - Vec.get t.ctx.slot_cyc_ooo s;
      budget := !budget + 1;
      match Tcache.Straight.pei_at tc s with
      | Some pei ->
        t.interp.pc <- pei.Tcache.pei_v_pc;
        result := Some X_trap_recovered
      | None -> failwith "exec_straight: fault at a slot with no PEI entry"));
    (match sink with
    | Some (f : Machine.Ev.t -> unit) ->
      let base = Tcache.Straight.addr_of tc 0 in
      let tm = tmpl_of t ~pc:(base + (4 * s)) s in
      f
        {
          tm with
          ea = !ea;
          taken = !taken;
          target =
            (match !result with
            | Some _ -> tm.pc + 4
            | None -> base + (4 * !next));
        }
    | None -> ());
    if running () then begin
      if !budget <= 0 then result := Some X_fuel else slot := !next
    end
  done;
  Option.get !result

(* ---------- engine selection (see Exec_acc) ---------- *)

let run ?sink ?(fuel = max_int) t ~entry : exit =
  match t.ctx.cfg.engine with
  | Config.Threaded -> (
    match sink with
    | None -> run_threaded ~fuel t ~entry
    | Some sink -> run_threaded_sink ~sink ~fuel t ~entry)
  | Config.Matched -> run_instrumented ?sink ~fuel t ~entry
