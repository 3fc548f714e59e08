module Memory = Machine.Memory
module Vec = Machine.Vec
module A = Alpha.Insn

(* Functional execution engines for straightened-Alpha translated code.

   Shares the interpreter's architected register file and memory. Control
   convention inside the translation cache: Bc/Br immediate fields and the
   register consumed by Jump hold absolute slot indices (see
   {!Straighten}).

   Mirrors {!Exec_acc}: a threaded-code engine (slots compiled to
   specialized closures, tight trampoline) for sink-less runs, and the
   instrumented variant-match engine whenever a timing sink is attached or
   {!Config.t.engine} forces [Matched]. *)

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
  (* --- region tier-up state (see Exec_acc) --- *)
  mutable rthreshold : int;
  mutable regions : regionc list;
  (* --- superop tier state (see Exec_acc) --- *)
  mutable idioms : Superop.table option;
  tmpls : Machine.Ev.t Tcache.Straight.shadow; (* see Exec_acc *)
}

and op = t -> int

and regionc = { rg : Region.t; r_orig : op; r_bops : op array }

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
    rthreshold = max_int;
    regions = [];
    idioms = None;
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

(* ---------- region tier-up (second compilation tier) ---------- *)

(* Telemetry: same names as Exec_acc (one VM owns one backend kind). *)
let c_region_compiles = Obs.counter "engine.region_compiles"
let c_region_exits = Obs.counter "engine.region_exits"
let c_region_invalidations = Obs.counter "engine.region_invalidations"

(* Top bound matches the default [region_max_slots] cap (1024); the
   [.saturated] counter reports clipping under a raised cap. *)
let h_region_slots =
  Obs.histogram "engine.region_slots"
    ~bounds:[| 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let sp_region = Obs.span "compile_region"

let ctrl_of_insn : A.t -> Region.ctrl = function
  | A.Br (_, target) -> Region.C_br target
  | A.Bc (_, _, target) -> Region.C_bc target
  | A.Jump _ -> Region.C_dyn
  | A.Ret_dras _ -> Region.C_dyn_fall
  | A.Call_xlate _ -> Region.C_exit
  | A.Call_xlate_cond _ -> Region.C_cond_exit
  | A.Bsr _ | A.Call_pal _ -> Region.C_exit
  | _ -> Region.C_seq

(* Bulk accounting, fault unwind, the region runner, promotion and
   invalidation mirror Exec_acc — see the comments there. *)
let unwind_region_suffix t (rg : Region.t) b s =
  let st = t.stats in
  let fin = rg.b_start.(b) + rg.b_len.(b) - 1 in
  for sl = s + 1 to fin do
    let a = Array.unsafe_get t.alphas sl in
    st.i_exec <- st.i_exec - 1;
    let c = Array.unsafe_get t.classes sl in
    st.by_class.(c) <- st.by_class.(c) - 1;
    st.alpha_retired <- st.alpha_retired - a;
    st.st_cycles <- st.st_cycles - Array.unsafe_get t.cycs sl;
    t.budget <- t.budget + a
  done

let run_region t (rg : Region.t) (orig : op) b0 : int =
  let ops = t.ops in
  let entry = rg.entry_slot in
  let b_start = rg.b_start and b_len = rg.b_len and b_alpha = rg.b_alpha in
  let b_cyc = rg.b_cyc and b_cls = rg.b_cls in
  let b_fall_slot = rg.b_fall_slot and b_fall_blk = rg.b_fall_blk in
  let b_taken_slot = rg.b_taken_slot and b_taken_blk = rg.b_taken_blk in
  let st = t.stats in
  let by_class = st.by_class in
  let rec block b =
    let ba = Array.unsafe_get b_alpha b in
    if t.budget <= ba then begin
      Obs.bump c_region_exits 1;
      Array.unsafe_get b_start b
    end
    else begin
      t.budget <- t.budget - ba;
      st.i_exec <- st.i_exec + Array.unsafe_get b_len b;
      st.alpha_retired <- st.alpha_retired + ba;
      st.st_cycles <- st.st_cycles + Array.unsafe_get b_cyc b;
      let base = b * Region.n_classes in
      for c = 0 to Region.n_classes - 1 do
        Array.unsafe_set by_class c
          (Array.unsafe_get by_class c + Array.unsafe_get b_cls (base + c))
      done;
      let s0 = Array.unsafe_get b_start b in
      slots b s0 (s0 + Array.unsafe_get b_len b - 1)
    end
  and slots b s fin =
    let op = if s = entry then orig else Array.unsafe_get ops s in
    let n = op t in
    if s >= fin then dispatch b n
    else if n = s + 1 then slots b (s + 1) fin
    else begin
      unwind_region_suffix t rg b s;
      Obs.bump c_region_exits 1;
      n
    end
  and dispatch b n =
    if n = Array.unsafe_get b_fall_slot b then
      block (Array.unsafe_get b_fall_blk b)
    else if n = Array.unsafe_get b_taken_slot b then
      block (Array.unsafe_get b_taken_blk b)
    else if n >= 0 then begin
      (* dynamic transfer (DRAS return hit, predicted indirect jump):
         continue in-region when the target is a block start *)
      let bi = Region.blk_at rg n in
      if bi >= 0 then block bi
      else begin
        Obs.bump c_region_exits 1;
        n
      end
    end
    else begin
      Obs.bump c_region_exits 1;
      n
    end
  in
  block b0

(* ---------- superop tier (third compilation tier, see Exec_acc) ---------- *)

(* Telemetry: same names as Exec_acc (one VM owns one backend kind). *)
let c_superop_fusions = Obs.counter "engine.superop_fusions"
let c_superop_idiom_hits = Obs.counter "engine.superop_idiom_hits"

let h_fused_slots =
  Obs.histogram "engine.fused_block_slots"
    ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128 |]

(* Slot shape for idiom mining (see {!Superop}). Lda/Ldah are shaped as
   adds — the straightened backend compiles them as register+displacement
   arithmetic, not as memory accesses. *)
let shape_of_insn (insn : A.t) : Superop.shape =
  match insn with
  | A.Mem ((Lda | Ldah), _, _, rb) ->
    let m = 1 lor if rb = Alpha.Reg.zero then 2 else 0 in
    Superop.Sh_alu (Superop.A_add, m)
  | A.Mem (Ldq, _, _, _) -> Superop.Sh_load (8, false)
  | A.Mem (Ldl, _, _, _) -> Superop.Sh_load (4, true)
  | A.Mem (Ldwu, _, _, _) -> Superop.Sh_load (2, false)
  | A.Mem (Ldbu, _, _, _) -> Superop.Sh_load (1, false)
  | A.Mem (Stq, _, _, _) -> Superop.Sh_store 8
  | A.Mem (Stl, _, _, _) -> Superop.Sh_store 4
  | A.Mem (Stw, _, _, _) -> Superop.Sh_store 2
  | A.Mem (Stb, _, _, _) -> Superop.Sh_store 1
  | A.Opr (op, ra, operand, _) ->
    if A.is_cmov insn then Superop.Sh_cmov
    else
      let ca = ra = Alpha.Reg.zero in
      let cb =
        match operand with A.Imm _ -> true | A.Rb r -> r = Alpha.Reg.zero
      in
      Superop.Sh_alu
        ( Superop.aluk_of_op3 op,
          (if ca then 2 else 0) lor if cb then 1 else 0 )
  | A.Lta _ -> Superop.Sh_move
  | A.Bc _ -> Superop.Sh_bc
  | A.Br _ | A.Jump _ | A.Ret_dras _ | A.Call_xlate _ | A.Call_xlate_cond _
  | A.Bsr _ | A.Call_pal _ ->
    Superop.Sh_ctl
  | A.Set_vbase _ | A.Push_dras _ -> Superop.Sh_misc

(* Lazy profile mining / table installation — see Exec_acc. *)
let mine_idioms t : Superop.table =
  let tc = t.ctx.tc in
  let profiles =
    List.filter_map
      (fun (f : Tcache.frag) ->
        if f.exec_count <= 0 || f.n_slots <= 0 then None
        else
          Some
            ( Array.init f.n_slots (fun i ->
                  shape_of_insn (Tcache.Straight.get tc (f.entry_slot + i))),
              f.exec_count ))
      (Tcache.Straight.fragments tc)
  in
  Superop.mine profiles

let idiom_table t =
  match t.idioms with
  | Some tbl -> tbl
  | None ->
    let tbl = mine_idioms t in
    t.idioms <- Some tbl;
    tbl

let set_idiom_table t tbl = t.idioms <- Some tbl

(* Fused entry closure — see Exec_acc: fused blocks chain by direct
   mutually tail-recursive calls, each head owns its strict budget
   check, and every exit path bumps the region-exit counter itself. *)
let make_region_op t (rg : Region.t) (orig : op) (bops : op array) : op =
  let eb = rg.entry_block in
  let e_alpha = t.alphas.(rg.entry_slot) in
  let e_cls = t.classes.(rg.entry_slot) in
  let e_cyc = t.cycs.(rg.entry_slot) in
  let entry_guard = rg.b_alpha.(eb) - e_alpha in
  let fused = Array.length bops > 0 in
  fun t ->
    if t.budget <= entry_guard then orig t
    else begin
      let st = t.stats in
      st.i_exec <- st.i_exec - 1;
      st.by_class.(e_cls) <- st.by_class.(e_cls) - 1;
      st.alpha_retired <- st.alpha_retired - e_alpha;
      st.st_cycles <- st.st_cycles - e_cyc;
      t.budget <- t.budget + e_alpha;
      if fused then (Array.unsafe_get bops eb) t else run_region t rg orig eb
    end

let slot_in_live_region t slot =
  List.exists (fun rc -> Region.contains rc.rg slot) t.regions

let invalidate_regions_at t sl =
  match t.regions with
  | [] -> ()
  | regions ->
    let stale, live =
      List.partition (fun rc -> Region.contains rc.rg sl) regions
    in
    if stale <> [] then begin
      List.iter
        (fun rc ->
          t.ops.(rc.rg.Region.entry_slot) <- rc.r_orig;
          (match
             Tcache.Straight.frag_of_entry t.ctx.tc rc.rg.Region.entry_slot
           with
          | Some f -> f.region_state <- 0
          | None -> ());
          Obs.bump c_region_invalidations 1)
        stale;
      t.regions <- live
    end

(* Promotion with superop fusion; mirrors Exec_acc (see the comments
   there — the mutual recursion exists because a fused compare+branch
   terminal performs fragment-entry accounting itself). *)
let rec promote t (f : Tcache.frag) =
  if f.region_state <> 0 then ()
  else if slot_in_live_region t f.entry_slot then f.region_state <- 2
  else begin
    let tc = t.ctx.tc in
    let built =
      Obs.with_span sp_region (fun () ->
          Region.build ~entry:f.entry_slot
            ~frag_at:(fun slot ->
              match Tcache.Straight.frag_of_entry tc slot with
              | Some g when g.region_state <> 1 -> Some (g.n_slots, g.v_start)
              | _ -> None)
            ~ctrl:(fun s -> ctrl_of_insn (Tcache.Straight.get tc s))
            ~alpha:(fun s -> t.alphas.(s))
            ~cyc:(fun s -> t.cycs.(s))
            ~cls:(fun s -> t.classes.(s))
            ~max_slots:t.ctx.cfg.region_max_slots)
    in
    match built with
    | None -> f.region_state <- 2
    | Some rg ->
      let orig = t.ops.(f.entry_slot) in
      let bops =
        if t.ctx.cfg.superops then fuse_region t rg orig else [||]
      in
      t.ops.(f.entry_slot) <- make_region_op t rg orig bops;
      t.regions <- { rg; r_orig = orig; r_bops = bops } :: t.regions;
      f.region_state <- 1;
      Obs.bump c_region_compiles 1;
      Obs.observe h_region_slots rg.total_slots
  end

and fuse_region t (rg : Region.t) (orig : op) : op array =
  let tbl = idiom_table t in
  let nb = Array.length rg.Region.b_start in
  let bops = Array.make nb (fun (_ : t) -> 0) in
  for b = 0 to nb - 1 do
    bops.(b) <- fuse_block t rg tbl orig bops b
  done;
  Obs.bump c_superop_fusions nb;
  bops

(* Fuse one block into a specialized closure chain; structure and
   accounting mirror Exec_acc.fuse_block. Backend differences: operand
   cells live in the architected register file, Lda/Ldah normalize to
   adds, conditional moves stay on their compiled ops, and the fault
   repair has no accumulator map to apply. *)
and fuse_block t (rg : Region.t) (tbl : Superop.table) (orig : op)
    (heads : op array) b : op =
  let tc = t.ctx.tc in
  let regs = t.interp.regs in
  let mem = t.interp.mem in
  let s0 = rg.b_start.(b) and len = rg.b_len.(b) in
  let fin = s0 + len - 1 in
  let nfin = fin + 1 in
  let entry = rg.entry_slot in
  let fall_slot = rg.b_fall_slot.(b) and fall_blk = rg.b_fall_blk.(b) in
  let taken_slot = rg.b_taken_slot.(b) and taken_blk = rg.b_taken_blk.(b) in
  let dispatch_term t n =
    if n = fall_slot then (Array.unsafe_get heads fall_blk) t
    else if n = taken_slot then (Array.unsafe_get heads taken_blk) t
    else if n >= 0 then begin
      let bi = Region.blk_at rg n in
      if bi >= 0 then (Array.unsafe_get heads bi) t
      else begin
        Obs.bump c_region_exits 1;
        n
      end
    end
    else begin
      Obs.bump c_region_exits 1;
      n
    end
  in
  let insn_at sl = Tcache.Straight.get tc sl in
  let shapes = Array.init len (fun i -> shape_of_insn (insn_at (s0 + i))) in
  let suf_n = Array.make len 0 and suf_a = Array.make len 0 in
  let suf_y = Array.make len 0 in
  let suf_c = Array.make (len * 4) 0 in
  for i = len - 2 downto 0 do
    let sl = s0 + i + 1 in
    suf_n.(i) <- suf_n.(i + 1) + 1;
    suf_a.(i) <- suf_a.(i + 1) + t.alphas.(sl);
    suf_y.(i) <- suf_y.(i + 1) + t.cycs.(sl);
    let base = i * 4 and pbase = (i + 1) * 4 in
    for c = 0 to 3 do
      suf_c.(base + c) <- suf_c.(pbase + c)
    done;
    let cc = t.classes.(sl) in
    suf_c.(base + cc) <- suf_c.(base + cc) + 1
  done;
  let make_fault i : op =
    let sl = s0 + i in
    let my_cyc = t.cycs.(sl) in
    let k = suf_n.(i) and sa = suf_a.(i) and sy = suf_y.(i) in
    let c0 = suf_c.(i * 4) and c1 = suf_c.((i * 4) + 1) in
    let c2 = suf_c.((i * 4) + 2) and c3 = suf_c.((i * 4) + 3) in
    match Tcache.Straight.pei_at tc sl with
    | None ->
      fun _ -> failwith "exec_straight: fault at a slot with no PEI entry"
    | Some pei ->
      let v_pc = pei.Tcache.pei_v_pc in
      fun t ->
        let st = t.stats in
        st.i_exec <- st.i_exec - k;
        st.alpha_retired <- st.alpha_retired - 1 - sa;
        st.st_cycles <- st.st_cycles - my_cyc - sy;
        t.budget <- t.budget + 1 + sa;
        let by = st.by_class in
        by.(0) <- by.(0) - c0;
        by.(1) <- by.(1) - c1;
        by.(2) <- by.(2) - c2;
        by.(3) <- by.(3) - c3;
        t.interp.pc <- v_pc;
        Obs.bump c_region_exits 1;
        ret_trap
  in
  let make_unwind i : t -> unit =
    let k = suf_n.(i) and sa = suf_a.(i) and sy = suf_y.(i) in
    let c0 = suf_c.(i * 4) and c1 = suf_c.((i * 4) + 1) in
    let c2 = suf_c.((i * 4) + 2) and c3 = suf_c.((i * 4) + 3) in
    fun t ->
      let st = t.stats in
      st.i_exec <- st.i_exec - k;
      st.alpha_retired <- st.alpha_retired - sa;
      st.st_cycles <- st.st_cycles - sy;
      t.budget <- t.budget + sa;
      let by = st.by_class in
      by.(0) <- by.(0) - c0;
      by.(1) <- by.(1) - c1;
      by.(2) <- by.(2) - c2;
      by.(3) <- by.(3) - c3;
      Obs.bump c_region_exits 1
  in
  let sink64 = [| 0L |] and sinkb = [| false |] in
  let cell = function L_reg i -> (regs, i) | L_const v -> ([| v |], 0) in
  let norm_wreg r =
    match wreg_loc r with
    | Some i -> (regs, i)
    | None -> (sink64, 0)
  in
  let mov_alu (xa, ia) (xd, id_) : Superop.ualu =
    {
      Superop.u_mov = true;
      u_f = (fun a _ -> a);
      u_xa = xa;
      u_ia = ia;
      u_xb = sink64;
      u_ib = 0;
      u_xd = xd;
      u_id = id_;
      u_wp = false;
      u_xp = sinkb;
      u_ip = 0;
      u_we = false;
      u_xe = sink64;
      u_ie = 0;
    }
  in
  let bin_alu f (xa, ia) (xb, ib) (xd, id_) : Superop.ualu =
    {
      Superop.u_mov = false;
      u_f = f;
      u_xa = xa;
      u_ia = ia;
      u_xb = xb;
      u_ib = ib;
      u_xd = xd;
      u_id = id_;
      u_wp = false;
      u_xp = sinkb;
      u_ip = 0;
      u_we = false;
      u_xe = sink64;
      u_ie = 0;
    }
  in
  let micro_at i : t Superop.micro =
    let sl = s0 + i in
    let insn = insn_at sl in
    match insn with
    | A.Mem (((Lda | Ldah) as op), ra, disp, rb) -> (
      let d = Int64.of_int (match op with Ldah -> disp * 65536 | _ -> disp) in
      let dst = norm_wreg ra in
      match reg_loc rb with
      | L_const cb -> Superop.M_alu (mov_alu ([| Int64.add cb d |], 0) dst)
      | L_reg ib ->
        Superop.M_alu (bin_alu Int64.add (regs, ib) ([| d |], 0) dst))
    | A.Mem (((Ldq | Ldl | Ldwu | Ldbu) as op), ra, disp, rb) ->
      let amask = match op with Ldq -> 7 | Ldl -> 3 | Ldwu -> 1 | _ -> 0 in
      let ld : Memory.t -> int -> int64 =
        match op with
        | Ldq -> Memory.get_i64
        | Ldl ->
          fun m a ->
            Int64.of_int32 (Int64.to_int32 (Int64.of_int (Memory.get_u32 m a)))
        | Ldwu -> fun m a -> Int64.of_int (Memory.get_u16 m a)
        | _ -> fun m a -> Int64.of_int (Memory.get_u8 m a)
      in
      let xb, ib = cell (reg_loc rb) in
      let xd, id_ = norm_wreg ra in
      Superop.M_ld
        {
          Superop.l_ld = ld;
          l_amask = amask;
          l_xb = xb;
          l_ib = ib;
          l_disp = disp;
          l_mem = mem;
          l_xd = xd;
          l_id = id_;
          l_wp = false;
          l_xp = sinkb;
          l_ip = 0;
          l_we = false;
          l_xe = sink64;
          l_ie = 0;
        }
    | A.Mem (((Stq | Stl | Stw | Stb) as op), ra, disp, rb) ->
      let amask = match op with Stq -> 7 | Stl -> 3 | Stw -> 1 | _ -> 0 in
      let st_ : Memory.t -> int -> int64 -> unit =
        match op with
        | Stq -> Memory.set_i64
        | Stl ->
          fun m a v ->
            Memory.set_u32 m a (Int64.to_int (Int64.logand v 0xffffffffL))
        | Stw ->
          fun m a v ->
            Memory.set_u16 m a (Int64.to_int (Int64.logand v 0xffffL))
        | _ ->
          fun m a v -> Memory.set_u8 m a (Int64.to_int (Int64.logand v 0xffL))
      in
      let xv, iv = cell (reg_loc ra) in
      let xb, ib = cell (reg_loc rb) in
      Superop.M_st
        {
          Superop.s_st = st_;
          s_amask = amask;
          s_xv = xv;
          s_iv = iv;
          s_xb = xb;
          s_ib = ib;
          s_disp = disp;
          s_mem = mem;
        }
    | A.Opr (op, ra, operand, rc) when not (A.is_cmov insn) -> (
      let dst = norm_wreg rc in
      match (reg_loc ra, operand_loc operand) with
      | L_const ca, L_const cb ->
        Superop.M_alu (mov_alu ([| (Alpha.Insn.eval_fn op) ca cb |], 0) dst)
      | la, lb ->
        Superop.M_alu (bin_alu (Alpha.Insn.eval_fn op) (cell la) (cell lb) dst)
      )
    | A.Lta (ra, v) ->
      Superop.M_alu (mov_alu ([| Int64.of_int v |], 0) (norm_wreg ra))
    | _ ->
      (* cmov, vbase, dual-RAS push: keep the slot's compiled op *)
      Superop.M_op (if sl = entry then orig else Array.unsafe_get t.ops sl)
  in
  let last_is_seq =
    match ctrl_of_insn (insn_at fin) with Region.C_seq -> true | _ -> false
  in
  let n_mids = if last_is_seq then len else len - 1 in
  let micros = Array.init n_mids micro_at in
  let term_plain : op =
    if last_is_seq then fun t -> dispatch_term t nfin
    else
      let top = if fin = entry then orig else Array.unsafe_get t.ops fin in
      fun t -> dispatch_term t (top t)
  in
  let mids_end, term, bc_fused =
    if last_is_seq || n_mids = 0 then (n_mids, term_plain, false)
    else
      match (insn_at fin, micros.(n_mids - 1)) with
      | A.Bc (c, ra, target), Superop.M_alu u
        when u.Superop.u_xd == regs
             && u.Superop.u_id = ra
             && Superop.enabled tbl shapes ~pos:(len - 2) ~len:2 ->
        let cf = Alpha.Insn.cond_fn c in
        let seg : op =
          match Tcache.Straight.frag_of_entry tc target with
          | Some f ->
            fun t ->
              Superop.alu_step u;
              if cf (Array.unsafe_get regs ra) then begin
                enter_fragment t f;
                dispatch_term t target
              end
              else dispatch_term t nfin
          | None ->
            fun t ->
              Superop.alu_step u;
              dispatch_term t
                (if cf (Array.unsafe_get regs ra) then target else nfin)
        in
        (n_mids - 1, seg, true)
      | _ -> (n_mids, term_plain, false)
  in
  let body, hits =
    Superop.fuse_segments tbl shapes micros ~mids_end
      ~next_of:(fun i -> s0 + i + 1)
      ~fh:make_fault ~unw:make_unwind ~term
  in
  let hits = if bc_fused then hits + 1 else hits in
  if hits > 0 then Obs.bump c_superop_idiom_hits hits;
  Obs.observe h_fused_slots len;
  let ba = rg.b_alpha.(b) and bcyc = rg.b_cyc.(b) in
  let base = b * Region.n_classes in
  let n0 = rg.b_cls.(base) and n1 = rg.b_cls.(base + 1) in
  let n2 = rg.b_cls.(base + 2) and n3 = rg.b_cls.(base + 3) in
  let blen = len in
  fun t ->
    if t.budget <= ba then begin
      Obs.bump c_region_exits 1;
      s0
    end
    else begin
      t.budget <- t.budget - ba;
      let st = t.stats in
      st.i_exec <- st.i_exec + blen;
      st.alpha_retired <- st.alpha_retired + ba;
      st.st_cycles <- st.st_cycles + bcyc;
      let by = st.by_class in
      Array.unsafe_set by 0 (Array.unsafe_get by 0 + n0);
      Array.unsafe_set by 1 (Array.unsafe_get by 1 + n1);
      Array.unsafe_set by 2 (Array.unsafe_get by 2 + n2);
      Array.unsafe_set by 3 (Array.unsafe_get by 3 + n3);
      body t
    end

(* Single source of truth for fragment-entry accounting (see Exec_acc). *)
and enter_fragment t (f : Tcache.frag) =
  f.exec_count <- f.exec_count + 1;
  t.stats.frag_enters <- t.stats.frag_enters + 1;
  if f.exec_count >= t.rthreshold && f.region_state = 0 then promote t f

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
          enter_fragment t f;
          target
      | None -> fun _ -> target)
    | A.Bc (c, ra, target) -> (
      check_static t ~slot:s target;
      let cf = Alpha.Insn.cond_fn c in
      match (Tcache.Straight.frag_of_entry tc target, reg_loc ra) with
      | Some f, L_reg ia ->
        fun t ->
          if cf (Array.unsafe_get regs ia) then begin
            enter_fragment t f;
            target
          end
          else next
      | Some f, L_const cv ->
        let tk = cf cv in
        fun t ->
          if tk then begin
            enter_fragment t f;
            target
          end
          else next
      | None, L_reg ia ->
        fun _ -> if cf (Array.unsafe_get regs ia) then target else next
      | None, L_const cv -> if cf cv then fun _ -> target else fun _ -> next)
    | A.Jump (_, _, rb) ->
      let grb = get_fn t rb in
      fun t ->
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
      fun _ -> if cf (gra ()) then code else next
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
    t.ops_gen <- gen;
    (* the compiled prefix the regions indexed into is gone wholesale *)
    t.regions <- []
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
        (* drop regions covering a patched slot before recompiling it *)
        for i = t.patch_mark to m - 1 do
          invalidate_regions_at t (Tcache.Straight.patched_slot tc i)
        done;
        for i = t.patch_mark to m - 1 do
          let sl = Tcache.Straight.patched_slot tc i in
          if sl < n then begin
            t.ops.(sl) <- compile t sl;
            Obs.bump c_replays 1
          end
        done;
        t.patch_mark <- m)

(* Warm start: pay closure compilation for every restored cache slot up
   front instead of on the first [run] after a snapshot load.
   [hot_entries] feeds the snapshot's hotness profile into region
   tier-up (see Exec_acc). *)
let prewarm ?(hot_entries = []) t =
  sync_ops t;
  List.iter
    (fun slot ->
      match Tcache.Straight.frag_of_entry t.ctx.tc slot with
      | Some f -> promote t f
      | None -> ())
    hot_entries

let region_count t = List.length t.regions

(* Number of live fused blocks across all regions (see Exec_acc). *)
let fused_block_count t =
  List.fold_left (fun acc rc -> acc + Array.length rc.r_bops) 0 t.regions

let run_threaded ?(fuel = max_int) t ~entry : exit =
  t.rthreshold <-
    (match t.ctx.cfg.engine with
    | Config.Region -> t.ctx.cfg.region_threshold
    | Config.Threaded | Config.Matched -> max_int);
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

(* ---------- instrumented (match-based) engine ---------- *)

(* The static part of slot [s]'s event, built on its first commit. *)
let tmpl_of t ~pc s insn =
  let cells = t.tmpls.Tcache.Straight.cells in
  let tm = cells.(s) in
  if tm != t.tmpls.empty then tm
  else begin
    let tm =
      Alpha.Trace.ev_of_exec
        ~alpha_count:(Vec.get t.ctx.slot_alpha s)
        ~pc ~insn ~taken:false ~target:0 ~ea:0 ()
    in
    cells.(s) <- tm;
    tm
  end

let run_instrumented ?sink ?(fuel = max_int) t ~entry : exit =
  let tc = t.ctx.tc in
  let get r = Alpha.Interp.get t.interp r in
  let set r v = Alpha.Interp.set t.interp r v in
  let mem = t.interp.mem in
  let budget = ref fuel in
  (* sink-attached runs must stay slot-granular: no region promotion *)
  t.rthreshold <- max_int;
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
      let tm = tmpl_of t ~pc:(base + (4 * s)) s insn in
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
  match sink with
  | Some _ -> run_instrumented ?sink ~fuel t ~entry
  | None -> (
    match t.ctx.cfg.engine with
    | Config.Threaded | Config.Region -> run_threaded ~fuel t ~entry
    | Config.Matched -> run_instrumented ~fuel t ~entry)
