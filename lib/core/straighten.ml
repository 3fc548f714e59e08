module Vec = Machine.Vec
module Memory = Machine.Memory
module A = Alpha.Insn

(* Code-straightening-only translator: Alpha -> straightened Alpha.

   The paper's third DBT/simulator (Section 4.1): superblocks are formed
   exactly as for the accumulator ISAs, but instructions are emitted
   near-verbatim — only branches are retargeted/reversed, NOPs and
   straightened-away unconditional branches are dropped, and chaining code
   is added. This isolates the effect of code straightening plus fragment
   chaining from the accumulator-ISA effects (Figs. 4-6).

   Register discipline: translated chaining code borrows AT (r28) and GP
   (r29), which the OSF Alpha ABI reserves for the assembler and the global
   pointer; guest workloads in this repository never hold live values there
   (checked at translation time). GP carries the dynamic target V-address
   into the shared dispatch code.

   Control-flow convention inside the translation cache: branch fields of
   Bc/Br and the register value consumed by Jump hold *absolute slot
   indices*, not byte displacements (see {!Exec_straight}). *)

let at = Alpha.Reg.at (* chain scratch *)
let gp = Alpha.Reg.gp (* dispatch argument: target V-address *)

type ctx = {
  cfg : Config.t;
  tc : Tcache.Straight.t;
  exits : Exitr.reason Vec.t;
  cost : Cost.t;
  slot_alpha : int Vec.t;
  slot_class : int Vec.t; (* Translate.slot_class ids *)
  unique_vpcs : (int, unit) Hashtbl.t;
  mutable dispatch_slot : int;
  mutable n_chain : int;
}

let emit ?(alpha = 0) ctx cls insn =
  Cost.tick ctx.cost Cost.emit_per_insn;
  (match cls with Translate.C_chain -> ctx.n_chain <- ctx.n_chain + 1 | _ -> ());
  let slot = Tcache.Straight.push ctx.tc insn in
  Vec.push ctx.slot_alpha alpha;
  Vec.push ctx.slot_class (Translate.class_id cls);
  slot

let hi_lo v =
  let v64 = Int64.of_int v in
  let lo = Int64.shift_right (Int64.shift_left (Int64.logand v64 0xffffL) 48) 48 in
  let hi = Int64.shift_right (Int64.sub v64 lo) 16 in
  (Int64.to_int hi, Int64.to_int lo)

(* Shared Alpha dispatch: two-probe lookup of the same in-memory table as
   the accumulator backend (Translate.table_base). Spills V0/T0 to the VM
   scratch page to gain working registers — the realistic cost a DBT on a
   conventional ISA pays (cf. the 15-instruction lookup of [6]). *)
let emit_dispatch ctx =
  let e insn = emit ctx Translate.C_chain insn in
  let sc_hi, sc_lo = hi_lo Alpha.Program.vm_scratch in
  let tb_hi, tb_lo = hi_lo Translate.table_base in
  let first = Tcache.Straight.n_slots ctx.tc in
  let keep_bits = 64 - Translate.table_bits in
  let v0 = 0 and t0 = 1 in
  let probe ~offset ~miss_placeholder =
    (* tag compare at table offset; on hit jump; returns slot of the miss
       branch to patch *)
    ignore (e (A.Mem (Ldq, t0, offset, v0)));
    ignore (e (A.Opr (Cmpeq, t0, Rb gp, t0)));
    let miss = e (A.Bc (Eq, t0, miss_placeholder)) in
    ignore (e (A.Mem (Ldq, gp, offset + 8, v0)));
    ignore (e (A.Mem (Ldah, at, sc_hi, 31)));
    ignore (e (A.Mem (Ldq, v0, sc_lo, at)));
    ignore (e (A.Mem (Ldq, t0, sc_lo + 8, at)));
    ignore (e (A.Jump (Jmp, 31, gp)));
    miss
  in
  (* prologue: spill v0/t0, hash, entry address *)
  ignore (e (A.Mem (Ldah, at, sc_hi, 31)));
  ignore (e (A.Mem (Stq, v0, sc_lo, at)));
  ignore (e (A.Mem (Stq, t0, sc_lo + 8, at)));
  ignore (e (A.Opr (Srl, gp, Imm 2, v0)));
  ignore (e (A.Opr (Sll, v0, Imm keep_bits, v0)));
  ignore (e (A.Opr (Srl, v0, Imm keep_bits, v0)));
  ignore (e (A.Opr (Sll, v0, Imm 4, v0)));
  ignore (e (A.Mem (Ldah, t0, tb_hi, 31)));
  (match tb_lo with
  | 0 -> ignore (e (A.Opr (Addq, v0, Rb t0, v0)))
  | _ ->
    ignore (e (A.Mem (Lda, t0, tb_lo, t0)));
    ignore (e (A.Opr (Addq, v0, Rb t0, v0))));
  let m0 = probe ~offset:0 ~miss_placeholder:0 in
  let p1 = Tcache.Straight.n_slots ctx.tc in
  Tcache.Straight.patch ctx.tc m0 (A.Bc (Eq, t0, p1));
  let m1 = probe ~offset:16 ~miss_placeholder:0 in
  let miss = Tcache.Straight.n_slots ctx.tc in
  Tcache.Straight.patch ctx.tc m1 (A.Bc (Eq, t0, miss));
  (* miss: restore and exit to the VM (dynamic target still in GP) *)
  ignore (e (A.Mem (Ldah, at, sc_hi, 31)));
  ignore (e (A.Mem (Ldq, v0, sc_lo, at)));
  ignore (e (A.Mem (Ldq, t0, sc_lo + 8, at)));
  let exit_id = Vec.length ctx.exits in
  Vec.push ctx.exits Exitr.R_dispatch_miss;
  ignore (e (A.Call_xlate exit_id));
  ctx.dispatch_slot <- first

let create cfg =
  let ctx =
    {
      cfg;
      tc = Tcache.Straight.create ();
      exits = Vec.create ~dummy:Exitr.R_dispatch_miss;
      cost = Cost.create ();
      slot_alpha = Vec.create ~dummy:0;
      slot_class = Vec.create ~dummy:0;
      unique_vpcs = Hashtbl.create 1024;
      dispatch_slot = 0;
      n_chain = 0;
    }
  in
  emit_dispatch ctx;
  ctx

(* Flush the straightened-code cache (cf. Translate.flush). *)
let flush ctx mem =
  Tcache.Straight.clear ctx.tc;
  Vec.clear ctx.exits;
  Vec.clear ctx.slot_alpha;
  Vec.clear ctx.slot_class;
  Memory.fill_zero mem ~addr:Translate.table_base ~len:Translate.table_bytes;
  emit_dispatch ctx

exception Reserved_register of int

(* Guest code must not hold live values in the VM's borrowed registers. *)
let check_regs (insn : A.t) =
  let bad r = r = at || r = gp in
  if List.exists bad (A.srcs insn) then raise (Reserved_register at);
  match A.dest insn with Some r when bad r -> raise (Reserved_register r) | _ -> ()

let c_superblocks = Obs.counter "translate.straight.superblocks"
let c_emitted = Obs.counter "translate.straight.emitted_slots"

let translate ctx mem (sb : Superblock.t) =
  if Array.length sb.entries = 0 then ()
  else begin
    Obs.bump c_superblocks 1;
    let entries = sb.entries in
    let n = Array.length entries in
    Cost.tick ctx.cost (n * Cost.usage_per_node);
    let entry_slot = Tcache.Straight.n_slots ctx.tc in
    let frag = Tcache.Straight.install ctx.tc ~v_start:sb.start_pc ~entry_slot in
    let v_insns = ref 0 in
    Array.iter
      (fun (e : Superblock.entry) ->
        if not (Superblock.is_nop e.insn) then begin
          incr v_insns;
          Hashtbl.replace ctx.unique_vpcs e.pc ()
        end)
      entries;
    frag.v_insns <- !v_insns;
    frag.v_bytes <- 4 * !v_insns;
    Cost.(ctx.cost.translated_insns <- ctx.cost.translated_insns + !v_insns);
    Translate.dispatch_install mem ~v:sb.start_pc ~slot:entry_slot;
    ignore (emit ctx Translate.C_prologue (A.Set_vbase sb.start_pc));
    let pending_alpha = ref 0 in
    let take_alpha () =
      let a = !pending_alpha in
      pending_alpha := 0;
      a
    in
    let new_exit v_target =
      let id = Vec.length ctx.exits in
      Vec.push ctx.exits (Exitr.R_branch v_target);
      id
    in
    let emit_cond_exit ?(cls = Translate.C_core) cond ra ~v_target =
      Cost.tick ctx.cost Cost.chain_per_exit;
      let alpha = take_alpha () in
      match Tcache.Straight.lookup ctx.tc v_target with
      | Some entry -> ignore (emit ~alpha ctx cls (A.Bc (cond, ra, entry)))
      | None ->
        let exit_id = new_exit v_target in
        let slot = emit ~alpha ctx cls (A.Call_xlate_cond (cond, ra, exit_id)) in
        Tcache.Straight.on_translate ctx.tc v_target (fun entry ->
            Tcache.Straight.patch ctx.tc slot (A.Bc (cond, ra, entry)))
    in
    let emit_uncond_exit ?(cls = Translate.C_chain) ~v_target () =
      Cost.tick ctx.cost Cost.chain_per_exit;
      let alpha = take_alpha () in
      match Tcache.Straight.lookup ctx.tc v_target with
      | Some entry -> ignore (emit ~alpha ctx cls (A.Br (31, entry)))
      | None ->
        let exit_id = new_exit v_target in
        let slot = emit ~alpha ctx cls (A.Call_xlate exit_id) in
        Tcache.Straight.on_translate ctx.tc v_target (fun entry ->
            Tcache.Straight.patch ctx.tc slot (A.Br (31, entry)))
    in
    let emit_dispatch_jump rb =
      ignore (emit ctx Translate.C_chain (A.Opr (Bis, rb, Rb rb, gp)));
      ignore
        (emit ~alpha:(take_alpha ()) ctx Translate.C_chain
           (A.Br (31, ctx.dispatch_slot)))
    in
    (* 6-instruction software target prediction (cf. [6]) *)
    let emit_sw_pred rb ~v_pred =
      Cost.tick ctx.cost Cost.chain_per_exit;
      let hi, lo = hi_lo v_pred in
      ignore (emit ctx Translate.C_chain (A.Mem (Ldah, at, hi, 31)));
      ignore (emit ctx Translate.C_chain (A.Mem (Lda, at, lo, at)));
      ignore (emit ctx Translate.C_chain (A.Opr (Cmpeq, at, Rb rb, at)));
      (* the jump's retirement credit must ride on the compare-and-branch
         slot, which executes on both paths — a prediction hit transfers
         straight to the chained entry and never reaches the dispatch jump
         below (cf. emit_sw_pred in Translate, which credits the Bc) *)
      let alpha = take_alpha () in
      (match Tcache.Straight.lookup ctx.tc v_pred with
      | Some entry ->
        ignore (emit ~alpha ctx Translate.C_chain (A.Bc (Ne, at, entry)))
      | None ->
        let exit_id = new_exit v_pred in
        let slot =
          emit ~alpha ctx Translate.C_chain (A.Call_xlate_cond (Ne, at, exit_id))
        in
        Tcache.Straight.on_translate ctx.tc v_pred (fun entry ->
            Tcache.Straight.patch ctx.tc slot (A.Bc (Ne, at, entry))));
      emit_dispatch_jump rb
    in
    let last = n - 1 in
    let v_continue = entries.(n - 1).next_pc in
    let block_done = ref false in
    Array.iteri
      (fun i (e : Superblock.entry) ->
        if not !block_done then begin
          if not (Superblock.is_nop e.insn) then incr pending_alpha;
          check_regs e.insn;
          match e.insn with
          | _ when Superblock.is_nop e.insn -> () (* NOPs dropped *)
          | Mem _ as insn ->
            let slot = emit ~alpha:(take_alpha ()) ctx Translate.C_core insn in
            if A.is_pei insn then
              Tcache.Straight.add_pei ctx.tc slot
                { Tcache.pei_v_pc = e.pc; acc_map = [||] }
          | Opr _ as insn ->
            ignore (emit ~alpha:(take_alpha ()) ctx Translate.C_core insn)
          | Bc (cond, ra, disp) ->
            let v_taken = e.pc + 4 + (4 * disp) and v_fall = e.pc + 4 in
            let ends = e.taken && e.next_pc <= e.pc in
            if ends then begin
              emit_cond_exit cond ra ~v_target:v_taken;
              emit_uncond_exit ~v_target:v_fall ();
              block_done := true
            end
            else if e.taken then begin
              let ncond : A.cond =
                match cond with
                | Eq -> Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt
                | Le -> Gt | Gt -> Le | Lbc -> Lbs | Lbs -> Lbc
              in
              emit_cond_exit ncond ra ~v_target:v_fall
            end
            else emit_cond_exit cond ra ~v_target:v_taken
          | Br (31, disp) ->
            (* straightened away unless it ends the block *)
            if i = last then begin
              emit_uncond_exit ~cls:Translate.C_core
                ~v_target:(e.pc + 4 + (4 * disp))
                ();
              block_done := true
            end
          | Br (ra, disp) | Bsr (ra, disp) ->
            let v_ret = e.pc + 4 in
            let slot =
              emit ~alpha:(take_alpha ()) ctx Translate.C_core
                (A.Push_dras (ra, v_ret, -1))
            in
            Tcache.Straight.on_translate ctx.tc v_ret (fun entry ->
                Tcache.Straight.patch ctx.tc slot (A.Push_dras (ra, v_ret, entry)));
            if i = last then begin
              emit_uncond_exit ~v_target:(e.pc + 4 + (4 * disp)) ();
              block_done := true
            end
          | Jump (kind, ra, rb) ->
            (if kind = Jsr || (kind <> Ret && ra <> 31) then begin
               let v_ret = e.pc + 4 in
               let slot =
                 emit ~alpha:(take_alpha ()) ctx Translate.C_core
                   (A.Push_dras (ra, v_ret, -1))
               in
               Tcache.Straight.on_translate ctx.tc v_ret (fun entry ->
                   Tcache.Straight.patch ctx.tc slot (A.Push_dras (ra, v_ret, entry)))
             end);
            (match (kind, ctx.cfg.chaining) with
            | Ret, Config.Sw_pred_ras ->
              ignore
                (emit ~alpha:(take_alpha ()) ctx Translate.C_core (A.Ret_dras rb));
              emit_dispatch_jump rb
            | _, Config.No_pred -> emit_dispatch_jump rb
            | _, (Config.Sw_pred_no_ras | Config.Sw_pred_ras) ->
              emit_sw_pred rb ~v_pred:e.next_pc);
            block_done := true
          | Call_pal _ ->
            let exit_id = Vec.length ctx.exits in
            Vec.push ctx.exits (Exitr.R_pal e.pc);
            (* the PAL instruction retires in the interpreter on reentry,
               not here — keep its own credit out of the exit slot *)
            ignore
              (emit ~alpha:(take_alpha () - 1) ctx Translate.C_core
                 (A.Call_xlate exit_id));
            block_done := true
          | Lta _ | Push_dras _ | Ret_dras _ | Call_xlate _ | Call_xlate_cond _
          | Set_vbase _ ->
            invalid_arg "straighten: VM instruction in V-ISA code"
        end)
      entries;
    if not !block_done then emit_uncond_exit ~v_target:v_continue ();
    Tcache.Straight.seal ctx.tc frag;
    Obs.bump c_emitted frag.n_slots;
    Cost.tick ctx.cost (frag.n_slots * Cost.install_per_insn)
  end
