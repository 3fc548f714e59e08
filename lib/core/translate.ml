module Vec = Machine.Vec
module Memory = Machine.Memory
module I = Accisa.Insn

(* Alpha -> accumulator-I-ISA translation (paper Section 3.3).

   One forward pass over the decomposed superblock nodes performs strand
   formation and linear-scan accumulator assignment simultaneously, emitting
   I-ISA instructions in original program order:

   - a node with no local (accumulator-carried) input starts a strand; if it
     has two global register inputs, one is first loaded with a
     copy-from-GPR that initiates the strand;
   - a node with one local input continues that strand;
   - a node with two local inputs keeps the strand chosen by the paper's
     heuristic (temp producer first, else the longer strand) and demotes the
     other value to a spill global;
   - when the translator runs out of accumulators, the least-recently-used
     live strand is terminated: its value is copied to its architected GPR
     (or a VM scratch register for decomposition temps), freeing the
     accumulator.

   Architected-state maintenance differs by target format:
   - basic ISA: values classified as needing a save (Fig. 7's global
     classes) get an explicit copy-to-GPR right after production; values
     held only in an accumulator are "dirty" and are copied out before the
     accumulator is overwritten whenever a potentially-excepting instruction
     lies ahead of the value's death (Section 2.2); PEI-table entries record
     the live accumulator-to-register map;
   - modified ISA: every producing instruction embeds its destination GPR
     ([gdst]); values needing inter-strand/inter-fragment communication are
     additionally marked as operational-GPR writes ([gopr]). *)

(* ---------- VM register and memory conventions ---------- *)

let vr_arg = 32 (* dispatch argument: target V-address *)
let vr_tmp = 33 (* dispatch temp *)
let scratch_home_base = 48 (* spilled-temp homes, 8 registers *)
let n_scratch_homes = 8

let table_base = 0x1000000
let table_bits = 14
let table_mask = (1 lsl table_bits) - 1
let table_bytes = 16 * ((1 lsl table_bits) + 2)

type slot_class = C_core | C_copy | C_chain | C_prologue

let class_id = function C_core -> 0 | C_copy -> 1 | C_chain -> 2 | C_prologue -> 3

type ctx = {
  cfg : Config.t;
  tc : Tcache.Acc.t;
  exits : Exitr.reason Vec.t;
  cost : Cost.t;
  slot_alpha : int Vec.t; (* V-ISA instructions retired by this slot *)
  slot_class : int Vec.t;
  unique_vpcs : (int, unit) Hashtbl.t; (* distinct V-addresses translated *)
  mutable dispatch_slot : int;
  mutable n_copy : int; (* state/spill/split copy instructions emitted *)
  mutable n_chain : int; (* chaining instructions emitted *)
  mutable n_spills : int; (* strand terminations from accumulator pressure *)
  mutable n_splits : int; (* two-global copy-from-GPR splits *)
}

let emit ?(strand_start = false) ?(alpha = 0) ctx cls insn =
  Cost.tick ctx.cost Cost.emit_per_insn;
  (match cls with
  | C_copy -> ctx.n_copy <- ctx.n_copy + 1
  | C_chain -> ctx.n_chain <- ctx.n_chain + 1
  | _ -> ());
  let slot = Tcache.Acc.push ~strand_start ctx.tc insn in
  Vec.push ctx.slot_alpha alpha;
  Vec.push ctx.slot_class (class_id cls);
  slot

(* ---------- shared dispatch code (paper Section 3.2) ----------

   ABI: the target V-address is in [vr_arg]. Two linear probes of a 16-byte
   { tag = V-address; value = entry slot } open-addressed table held in
   VM-private simulated memory; a double miss exits to the translator. The
   probe-0 hit path costs 12 instructions, a probe-1 hit 22, on the scale of
   the paper's "the dispatch code takes 20 instructions". *)

let hash_of_v v = (v lsr 2) land table_mask

let entry_addr v probe = table_base + (16 * ((hash_of_v v + probe) land table_mask))

(* Install a fragment entry into the in-memory dispatch table. *)
let dispatch_install mem ~v ~slot =
  let try_probe p =
    let a = entry_addr v p in
    let tag = Memory.get_i64 mem a in
    if Int64.equal tag 0L || Int64.equal tag (Int64.of_int v) then begin
      Memory.set_i64 mem a (Int64.of_int v);
      Memory.set_i64 mem (a + 8) (Int64.of_int slot);
      true
    end
    else false
  in
  if not (try_probe 0 || try_probe 1) then begin
    (* both probes taken by other addresses: evict probe 0 (rare; the
       evicted fragment falls back to translator-assisted dispatch) *)
    let a = entry_addr v 0 in
    Memory.set_i64 mem a (Int64.of_int v);
    Memory.set_i64 mem (a + 8) (Int64.of_int slot)
  end

let dacc a = { I.dacc = a; gdst = None; gopr = false }

let emit_dispatch ctx =
  let e ?strand_start insn = emit ?strand_start ctx C_chain insn in
  let first = Tcache.Acc.n_slots ctx.tc in
  (* probe 0: hash, load tag, compare *)
  ignore (e ~strand_start:true (I.Alu { op = Srl; d = dacc 0; a = Sgpr vr_arg; b = Simm 2L }));
  ignore (e (I.Alu { op = And_; d = dacc 0; a = Sacc 0; b = Simm (Int64.of_int table_mask) }));
  ignore (e (I.Alu { op = Sll; d = dacc 0; a = Sacc 0; b = Simm 4L }));
  ignore (e (I.Alu { op = Addq; d = dacc 0; a = Sacc 0; b = Simm (Int64.of_int table_base) }));
  ignore (e (I.Copy_to_gpr { g = vr_tmp; a = 0 }));
  ignore (e (I.Load { width = W8; signed = false; d = dacc 0; base = Sacc 0; disp = 0 }));
  ignore (e (I.Alu { op = Xor; d = dacc 0; a = Sacc 0; b = Sgpr vr_arg }));
  let b0 = e (I.Bc { cond = Ne; v = Sacc 0; target = 0 (* patched below *) }) in
  ignore (e ~strand_start:true (I.Copy_from_gpr { d = dacc 0; g = vr_tmp }));
  ignore (e (I.Alu { op = Addq; d = dacc 0; a = Sacc 0; b = Simm 8L }));
  ignore (e (I.Load { width = W8; signed = false; d = dacc 0; base = Sacc 0; disp = 0 }));
  ignore (e (I.Jmp_ind { v = Sacc 0 }));
  (* probe 1 *)
  let p1 = Tcache.Acc.n_slots ctx.tc in
  Tcache.Acc.patch ctx.tc b0 (I.Bc { cond = Ne; v = Sacc 0; target = p1 });
  ignore (e ~strand_start:true (I.Copy_from_gpr { d = dacc 0; g = vr_tmp }));
  ignore (e (I.Alu { op = Addq; d = dacc 0; a = Sacc 0; b = Simm 16L }));
  ignore (e (I.Copy_to_gpr { g = vr_tmp; a = 0 }));
  ignore (e (I.Load { width = W8; signed = false; d = dacc 0; base = Sacc 0; disp = 0 }));
  ignore (e (I.Alu { op = Xor; d = dacc 0; a = Sacc 0; b = Sgpr vr_arg }));
  let b1 = e (I.Bc { cond = Ne; v = Sacc 0; target = 0 (* patched below *) }) in
  ignore (e ~strand_start:true (I.Copy_from_gpr { d = dacc 0; g = vr_tmp }));
  ignore (e (I.Alu { op = Addq; d = dacc 0; a = Sacc 0; b = Simm 8L }));
  ignore (e (I.Load { width = W8; signed = false; d = dacc 0; base = Sacc 0; disp = 0 }));
  ignore (e (I.Jmp_ind { v = Sacc 0 }));
  (* miss *)
  let miss = Tcache.Acc.n_slots ctx.tc in
  Tcache.Acc.patch ctx.tc b1 (I.Bc { cond = Ne; v = Sacc 0; target = miss });
  let exit_id = Vec.length ctx.exits in
  Vec.push ctx.exits Exitr.R_dispatch_miss;
  ignore (e (I.Call_xlate { exit_id }));
  ctx.dispatch_slot <- first

let create cfg =
  let ctx =
    {
      cfg;
      tc = Tcache.Acc.create ();
      exits = Vec.create ~dummy:Exitr.R_dispatch_miss;
      cost = Cost.create ();
      slot_alpha = Vec.create ~dummy:0;
      slot_class = Vec.create ~dummy:0;
      unique_vpcs = Hashtbl.create 1024;
      dispatch_slot = 0;
      n_copy = 0;
      n_chain = 0;
      n_spills = 0;
      n_splits = 0;
    }
  in
  emit_dispatch ctx;
  ctx

(* Map the dispatch table into the simulated address space. *)
let map_vm_memory mem = Memory.map mem ~addr:table_base ~len:table_bytes

(* Flush the translation cache (paper Section 4.1: Dynamo flushes on phase
   change so that new, better fragments can form). Drops all fragments and
   patches, clears the in-memory dispatch table, and re-emits the shared
   dispatch code. Statistics and translation-cost accounting accumulate
   across flushes. *)
let flush ctx mem =
  Tcache.Acc.clear ctx.tc;
  Vec.clear ctx.exits;
  Vec.clear ctx.slot_alpha;
  Vec.clear ctx.slot_class;
  Memory.fill_zero mem ~addr:table_base ~len:table_bytes;
  emit_dispatch ctx

(* ---------- per-superblock translation ---------- *)

exception Translate_bug of string

(* Telemetry: per-backend translation counters; the sizing histogram is
   fed with the superblock's V-ISA instruction count before expansion. *)
let c_superblocks = Obs.counter "translate.acc.superblocks"
let c_emitted = Obs.counter "translate.acc.emitted_slots"

(* Top bound doubled past max_superblock (200) so oversized formations at
   raised scales land in a real bucket; [.saturated] counts any clipping. *)
let h_sb_insns =
  Obs.histogram "translate.superblock_v_insns"
    ~bounds:[| 2; 4; 8; 16; 32; 64; 128; 200; 400 |]

let translate ctx mem (sb : Superblock.t) =
  if Array.length sb.entries = 0 then ()
  else begin
    Obs.bump c_superblocks 1;
    Obs.observe h_sb_insns (Array.length sb.entries);
    let nodes = Node.decompose ~fuse_mem:ctx.cfg.fuse_mem sb in
    let usage = Usage.analyze nodes in
    let n = Array.length nodes in
    Cost.tick ctx.cost (n * (Cost.usage_per_node + Cost.strand_per_node));
    let modified = ctx.cfg.isa = Config.Modified in
    (* --- per-def facts --- *)
    let uses_left = Array.make n 0 in
    let home = Array.make n (-1) in (* GPR holding the value, -1 = none *)
    let def_acc = Array.make n (-1) in
    let def_slot = Array.make n (-1) in
    let def_reg = Array.make n (-1) in (* architected dest reg, -1 = temp *)
    let pei_between = Array.make n false in
    let is_temp_def = Array.make n false in
    Array.iteri
      (fun i d ->
        match d with
        | Some (di : Usage.def_info) -> uses_left.(i) <- List.length di.users
        | None -> ())
      usage.defs;
    Array.iteri
      (fun i (nd : Node.t) ->
        match nd.dst with
        | Dreg r -> def_reg.(i) <- r
        | Dtmp _ -> is_temp_def.(i) <- true
        | Dnone -> ())
      nodes;
    (* PEIs in (def, redef] decide whether a dying accumulator-only value
       must be copied out for trap recoverability *)
    let pei_pre = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      pei_pre.(i + 1) <- pei_pre.(i) + if Node.is_pei nodes.(i) then 1 else 0
    done;
    let redef = Array.make n (-1) in
    let cur = Array.make 32 (-1) in
    Array.iteri
      (fun i (nd : Node.t) ->
        match nd.dst with
        | Dreg r ->
          if cur.(r) >= 0 then redef.(cur.(r)) <- i;
          cur.(r) <- i
        | _ -> ())
      nodes;
    for i = 0 to n - 1 do
      pei_between.(i) <-
        (if redef.(i) < 0 then pei_pre.(n) - pei_pre.(i + 1) > 0
         else pei_pre.(redef.(i) + 1) - pei_pre.(i + 1) > 0)
    done;
    (* --- accumulator state --- *)
    let nacc = ctx.cfg.n_accs in
    let tip = Array.make nacc (-1) in
    let dirty = Array.make nacc (-1) in (* arch reg whose only copy is here *)
    let touch = Array.make nacc 0 in
    let strand_len = Array.make nacc 0 in
    let reg_dirty_acc = Array.make 32 (-1) in
    let clock = ref 0 in
    let scratch_next = ref 0 in
    let save_needed i =
      match usage.defs.(i) with Some di -> di.save_needed | None -> false
    in
    let acc_linked i =
      match usage.defs.(i) with Some di -> Usage.acc_linked di | None -> false
    in
    let clear_dirty a =
      if dirty.(a) >= 0 then begin
        reg_dirty_acc.(dirty.(a)) <- -1;
        dirty.(a) <- -1
      end
    in
    (* Set gopr on an already-emitted producing instruction (modified ISA
       spill: the architected write becomes an operational one). *)
    let set_gopr slot =
      let upgrade (d : I.dst) = { d with gopr = true } in
      let insn =
        match Tcache.Acc.get ctx.tc slot with
        | I.Alu r -> I.Alu { r with d = upgrade r.d }
        | I.Cmov_test r -> I.Cmov_test { r with d = upgrade r.d }
        | I.Cmov_sel r -> I.Cmov_sel { r with d = upgrade r.d }
        | I.Load r -> I.Load { r with d = upgrade r.d }
        | I.Copy_from_gpr r -> I.Copy_from_gpr { r with d = upgrade r.d }
        | I.Lta r -> I.Lta { r with d = upgrade r.d }
        | i -> i
      in
      Tcache.Acc.patch ctx.tc slot insn
    in
    (* Give def [d] a GPR home (demotion / spill). Returns the home GPR.
       Must be called while the value is still in its accumulator unless a
       home already exists. *)
    let materialize d =
      if home.(d) >= 0 then home.(d)
      else begin
        let g =
          if def_reg.(d) >= 0 then def_reg.(d)
          else begin
            (* decomposition temp: home in a VM scratch register *)
            let g = scratch_home_base + (!scratch_next mod n_scratch_homes) in
            incr scratch_next;
            g
          end
        in
        if modified && def_reg.(d) >= 0 then
          (* the architected write already exists; make it operational *)
          set_gopr def_slot.(d)
        else begin
          let a = def_acc.(d) in
          if a < 0 || tip.(a) <> d then
            raise (Translate_bug "materialize: value no longer in accumulator");
          ignore (emit ctx C_copy (I.Copy_to_gpr { g; a }));
          clear_dirty a
        end;
        home.(d) <- g;
        g
      end
    in
    (* Terminate the strand living in [a] (eviction or natural death),
       preserving recoverability and any pending readers. *)
    let free_acc a =
      let d = tip.(a) in
      if d >= 0 then begin
        if uses_left.(d) > 0 then begin
          ctx.n_spills <- ctx.n_spills + 1;
          ignore (materialize d)
        end
        else if dirty.(a) >= 0 && pei_between.(d) then begin
          (* copy-before-overwrite for precise traps (Section 2.2) *)
          ignore (emit ctx C_copy (I.Copy_to_gpr { g = dirty.(a); a }));
          home.(d) <- dirty.(a)
        end;
        clear_dirty a;
        tip.(a) <- -1
      end
    in
    let alloc_acc ~exclude =
      (* rotate over free accumulators (least-recently-touched first): with
         more logical accumulators, independent strands get distinct ids and
         can engage distinct PEs — the effect behind the paper's
         8-accumulator experiment *)
      let free = ref (-1) in
      for a = nacc - 1 downto 0 do
        if tip.(a) < 0 && (!free < 0 || touch.(a) < touch.(!free)) then free := a
      done;
      if !free >= 0 then !free
      else begin
        (* victim: least-recently-touched, preferring non-temp tips, never
           an accumulator involved in the current node *)
        let best = ref (-1) in
        let score a =
          (if is_temp_def.(tip.(a)) then 1_000_000_000 else 0) + touch.(a)
        in
        for a = nacc - 1 downto 0 do
          if not (List.mem a exclude) && (!best < 0 || score a < score !best)
          then best := a
        done;
        if !best < 0 then raise (Translate_bug "no allocatable accumulator");
        free_acc !best;
        !best
      end
    in
    (* Prepare accumulator [a] to be overwritten by a strand continuation:
       the old tip is consumed by the continuing instruction itself, but
       other pending readers or trap recoverability may need the value in a
       GPR first. [own_reads] is how many of the current node's sources read
       the old tip. *)
    let pre_overwrite a ~own_reads =
      let d = tip.(a) in
      if d >= 0 then begin
        if uses_left.(d) > own_reads then ignore (materialize d)
        else if dirty.(a) >= 0 && pei_between.(d) then begin
          ignore (emit ctx C_copy (I.Copy_to_gpr { g = dirty.(a); a }));
          home.(d) <- dirty.(a)
        end;
        clear_dirty a
      end
    in
    (* --- fragment bookkeeping --- *)
    let entry_slot = Tcache.Acc.n_slots ctx.tc in
    let frag = Tcache.Acc.install ctx.tc ~v_start:sb.start_pc ~entry_slot in
    Array.iter
      (fun d ->
        match d with
        | Some (di : Usage.def_info) ->
          frag.cat_count.(Tcache.cat_index di.category) <-
            frag.cat_count.(Tcache.cat_index di.category) + 1
        | None -> ())
      usage.defs;
    let v_insns = ref 0 in
    Array.iter
      (fun (e : Superblock.entry) ->
        if not (Superblock.is_nop e.insn) then begin
          incr v_insns;
          Hashtbl.replace ctx.unique_vpcs e.pc ()
        end)
      sb.entries;
    frag.v_insns <- !v_insns;
    frag.v_bytes <- 4 * !v_insns;
    Cost.(ctx.cost.translated_insns <- ctx.cost.translated_insns + !v_insns);
    dispatch_install mem ~v:sb.start_pc ~slot:entry_slot;
    (* prologue: embed the V-ISA base address (Section 2.2) *)
    ignore (emit ctx C_prologue (I.Set_vbase { vaddr = sb.start_pc }));
    (* V-ISA retirement credit, accumulated across straightened-away
       branches and attached to the next retiring instruction *)
    let pending_alpha = ref 0 in
    let take_alpha () =
      let a = !pending_alpha in
      pending_alpha := 0;
      a
    in
    (* --- exit emission helpers --- *)
    let new_exit v_target =
      let id = Vec.length ctx.exits in
      Vec.push ctx.exits (Exitr.R_branch v_target);
      id
    in
    let emit_cond_exit ?(cls = C_chain) cond v ~v_target =
      Cost.tick ctx.cost Cost.chain_per_exit;
      let alpha = take_alpha () in
      match Tcache.Acc.lookup ctx.tc v_target with
      | Some entry ->
        ignore (emit ~alpha ctx cls (I.Bc { cond; v; target = entry }))
      | None ->
        let exit_id = new_exit v_target in
        let slot = emit ~alpha ctx cls (I.Call_xlate_cond { cond; v; exit_id }) in
        Tcache.Acc.on_translate ctx.tc v_target (fun entry ->
            Tcache.Acc.patch ctx.tc slot (I.Bc { cond; v; target = entry }))
    in
    let emit_uncond_exit ?(cls = C_chain) ~v_target () =
      Cost.tick ctx.cost Cost.chain_per_exit;
      let alpha = take_alpha () in
      match Tcache.Acc.lookup ctx.tc v_target with
      | Some entry -> ignore (emit ~alpha ctx cls (I.Br { target = entry }))
      | None ->
        let exit_id = new_exit v_target in
        let slot = emit ~alpha ctx cls (I.Call_xlate { exit_id }) in
        Tcache.Acc.on_translate ctx.tc v_target (fun entry ->
            Tcache.Acc.patch ctx.tc slot (I.Br { target = entry }))
    in
    (* move an arbitrary operand into the dispatch argument register *)
    let move_to_vr0 (v : I.src) =
      match v with
      | Sacc a -> ignore (emit ctx C_chain (I.Copy_to_gpr { g = vr_arg; a }))
      | Sgpr g when g = vr_arg -> ()
      | Sgpr g ->
        let a = alloc_acc ~exclude:[] in
        ignore (emit ~strand_start:true ctx C_chain (I.Copy_from_gpr { d = dacc a; g }));
        ignore (emit ctx C_chain (I.Copy_to_gpr { g = vr_arg; a }))
      | Simm value ->
        let a = alloc_acc ~exclude:[] in
        ignore (emit ~strand_start:true ctx C_chain (I.Lta { d = dacc a; value }));
        ignore (emit ctx C_chain (I.Copy_to_gpr { g = vr_arg; a }))
    in
    let emit_dispatch_jump v =
      move_to_vr0 v;
      ignore (emit ~alpha:(take_alpha ()) ctx C_chain (I.Br { target = ctx.dispatch_slot }))
    in
    (* software target prediction: 3-instruction compare-and-branch using
       load-embedded-target-address, then dispatch on mismatch *)
    let emit_sw_pred v ~v_pred =
      Cost.tick ctx.cost Cost.chain_per_exit;
      let vg =
        match v with
        | I.Sgpr g -> g
        | I.Sacc a ->
          ignore (emit ctx C_chain (I.Copy_to_gpr { g = vr_arg; a }));
          vr_arg
        | I.Simm _ -> raise (Translate_bug "indirect jump on immediate")
      in
      let a = alloc_acc ~exclude:[] in
      ignore
        (emit ~strand_start:true ctx C_chain
           (I.Lta { d = dacc a; value = Int64.of_int v_pred }));
      ignore
        (emit ctx C_chain (I.Alu { op = Xor; d = dacc a; a = Sacc a; b = Sgpr vg }));
      emit_cond_exit Eq (I.Sacc a) ~v_target:v_pred;
      emit_dispatch_jump (I.Sgpr vg)
    in
    (* --- destination construction --- *)
    let mk_dst i acc =
      if modified && def_reg.(i) >= 0 then
        {
          I.dacc = acc;
          gdst = Some def_reg.(i);
          gopr =
            (match usage.defs.(i) with
            | Some di -> Usage.needs_operational di
            | None -> false);
        }
      else dacc acc
    in
    (* after emitting a producing node: state maintenance *)
    let finish_def i acc ~fresh slot =
      def_slot.(i) <- slot;
      tip.(acc) <- i;
      def_acc.(i) <- acc;
      incr clock;
      touch.(acc) <- !clock;
      strand_len.(acc) <- (if fresh then 1 else strand_len.(acc) + 1);
      let r = def_reg.(i) in
      if r >= 0 then begin
        (* this def supersedes the previous value of r *)
        if reg_dirty_acc.(r) >= 0 then clear_dirty reg_dirty_acc.(r);
        if modified then home.(i) <- r
        else if save_needed i then begin
          ignore (emit ctx C_copy (I.Copy_to_gpr { g = r; a = acc }));
          home.(i) <- r
        end
        else begin
          dirty.(acc) <- r;
          reg_dirty_acc.(r) <- acc
        end
      end;
      if uses_left.(i) = 0 then free_acc acc
    in
    (* record a PEI-table entry for the instruction at [slot] *)
    let add_pei slot v_pc =
      let map = ref [] in
      for a = 0 to nacc - 1 do
        if dirty.(a) >= 0 then map := (a, dirty.(a)) :: !map
      done;
      Tcache.Acc.add_pei ctx.tc slot
        { Tcache.pei_v_pc = v_pc; acc_map = Array.of_list !map }
    in
    (* --- operand resolution --- *)
    let resolve i k (v : Node.value) : I.src * int option =
      let of_def d =
        if acc_linked d && def_acc.(d) >= 0 && tip.(def_acc.(d)) = d then
          (I.Sacc def_acc.(d), Some d)
        else (I.Sgpr (materialize d), Some d)
      in
      match v with
      | Vimm x -> (I.Simm x, None)
      | Vreg r -> (
        match usage.src_defs.(i).(k) with
        | None -> (I.Sgpr r, None) (* live-in global *)
        | Some d -> of_def d)
      | Vtmp _ -> (
        match usage.src_defs.(i).(k) with
        | Some d -> of_def d
        | None -> raise (Translate_bug "unresolved temp"))
    in
    (* consumption after the instruction is emitted; [keep] is the
       accumulator taken over by the node's own output, never freed here *)
    let consume ~keep ops =
      Array.iter
        (fun (_, d_opt) ->
          match d_opt with
          | None -> ()
          | Some d ->
            uses_left.(d) <- uses_left.(d) - 1;
            if
              uses_left.(d) = 0 && def_acc.(d) >= 0
              && tip.(def_acc.(d)) = d
              && def_acc.(d) <> keep
            then free_acc def_acc.(d))
        ops
    in
    (* Strand choice among resolved operands (paper Section 3.3): at most
       one source keeps its accumulator; with two distinct strands the
       heuristic keeps the temp producer's, else the longer one, and the
       other value is demoted to a spill global. *)
    let plan_strand (ops : (I.src * int option) array) =
      let acc_ops =
        Array.to_list ops
        |> List.filter_map (fun (s, d) ->
               match (s, d) with I.Sacc a, Some d -> Some (a, d) | _ -> None)
      in
      let distinct = List.sort_uniq compare (List.map fst acc_ops) in
      match distinct with
      | [] -> (ops, None)
      | [ a ] -> (ops, Some a)
      | a1 :: a2 :: _ ->
        let d1 = tip.(a1) and d2 = tip.(a2) in
        let keep, demote =
          if is_temp_def.(d1) && not (is_temp_def.(d2)) then (a1, d2)
          else if is_temp_def.(d2) && not (is_temp_def.(d1)) then (a2, d1)
          else if strand_len.(a1) >= strand_len.(a2) then (a1, d2)
          else (a2, d1)
        in
        let g = materialize demote in
        let ops' =
          Array.map
            (fun (s, d) ->
              match (s, d) with
              | I.Sacc a, Some dd when dd = demote && a <> keep -> (I.Sgpr g, d)
              | o -> o)
            ops
        in
        (ops', Some keep)
    in
    (* Basic-ISA GPR-destination form (Section 2.1, "one GPR, either as a
       source or a destination"): a value with no accumulator-linked
       consumers whose sources name no GPR writes its architected register
       directly — no accumulator, no copy. *)
    let gpr_dest_ok i (ops : (I.src * int option) array) =
      (not modified) && def_reg.(i) >= 0 && save_needed i
      && (not (acc_linked i && uses_left.(i) > 0))
      && not
           (Array.exists
              (fun (s, _) -> match s with I.Sgpr _ -> true | _ -> false)
              ops)
    in
    (* For producing nodes: pick the output accumulator, inserting a
       copy-from-GPR split when the node would otherwise name two GPRs.
       [cont] comes from a prior {!plan_strand} pass over [ops]. *)
    let assign_output i (ops : (I.src * int option) array) cont =
      ignore i;
      match cont with
      | Some a ->
        let own_reads =
          Array.to_list ops
          |> List.filter (fun (s, d) ->
                 match (s, d) with
                 | I.Sacc a', Some d -> a' = a && d = tip.(a)
                 | _ -> false)
          |> List.length
        in
        pre_overwrite a ~own_reads;
        (ops, a, false)
      | None ->
        let gpr_idxs =
          Array.to_list (Array.mapi (fun k (s, _) -> (k, s)) ops)
          |> List.filter_map (fun (k, s) ->
                 match s with I.Sgpr _ -> Some k | _ -> None)
        in
        let acc = alloc_acc ~exclude:[] in
        (match gpr_idxs with
        | k1 :: _ :: _ ->
          (* two globals: break the first out with a copy-from-GPR that
             initiates the strand *)
          ctx.n_splits <- ctx.n_splits + 1;
          let g = match fst ops.(k1) with I.Sgpr g -> g | _ -> assert false in
          ignore
            (emit ~strand_start:true ctx C_copy (I.Copy_from_gpr { d = dacc acc; g }));
          ops.(k1) <- (I.Sacc acc, snd ops.(k1))
        | _ -> ());
        (ops, acc, true)
    in
    (* --- main scan --- *)
    let last = n - 1 in
    let v_continue = sb.entries.(Array.length sb.entries - 1).next_pc in
    let block_done = ref false in
    Array.iteri
      (fun i (nd : Node.t) ->
        if not !block_done then begin
          if nd.last_of_insn then incr pending_alpha;
          let ops () = Array.mapi (fun k v -> resolve i k v) nd.srcs in
          let producing ?(pei = false) mk =
            let ops, cont = plan_strand (ops ()) in
            (* the value this node's destination register held stops being
               architecturally current HERE: clear its dirty status before
               [consume] can emit a (now stale) copy-before-overwrite *)
            let clear_redefined () =
              let r = def_reg.(i) in
              if r >= 0 && reg_dirty_acc.(r) >= 0 then
                clear_dirty reg_dirty_acc.(r)
            in
            if gpr_dest_ok i ops then begin
              (* GPR-destination form: terminate without an accumulator *)
              let r = def_reg.(i) in
              let d = { I.dacc = -1; gdst = Some r; gopr = false } in
              let slot = emit ~alpha:(take_alpha ()) ctx C_core (mk ops d) in
              if pei then add_pei slot nd.v_pc;
              clear_redefined ();
              consume ~keep:(-1) ops;
              def_slot.(i) <- slot;
              home.(i) <- r
            end
            else begin
              let ops, acc, fresh = assign_output i ops cont in
              let slot =
                emit ~strand_start:fresh ~alpha:(take_alpha ()) ctx C_core
                  (mk ops (mk_dst i acc))
              in
              if pei then add_pei slot nd.v_pc;
              clear_redefined ();
              consume ~keep:acc ops;
              finish_def i acc ~fresh slot
            end
          in
          match nd.kind with
          | K_op op ->
            producing (fun ops d ->
                I.Alu { op; d; a = fst ops.(0); b = fst ops.(1) })
          | K_cmov_test cond ->
            producing (fun ops d ->
                I.Cmov_test { cond; d; cv = fst ops.(0); old = fst ops.(1) })
          | K_cmov_sel ->
            producing (fun ops d ->
                match fst ops.(0) with
                | I.Sacc _ -> I.Cmov_sel { d; p = fst ops.(0); nv = fst ops.(1) }
                | _ -> raise (Translate_bug "cmov predicate left its accumulator"))
          | K_load (width, signed, disp) ->
            producing ~pei:true (fun ops d ->
                I.Load { width; signed; d; base = fst ops.(0); disp })
          | K_store (width, disp) ->
            let ops, _ = plan_strand (ops ()) in
            (* a store may still name two GPRs: split the value side *)
            let value =
              match (fst ops.(0), fst ops.(1)) with
              | I.Sgpr g1, I.Sgpr _ ->
                ctx.n_splits <- ctx.n_splits + 1;
                let a = alloc_acc ~exclude:[] in
                ignore
                  (emit ~strand_start:true ctx C_copy
                     (I.Copy_from_gpr { d = dacc a; g = g1 }));
                I.Sacc a
              | v, _ -> v
            in
            let slot =
              emit ~alpha:(take_alpha ()) ctx C_core
                (I.Store { width; value; base = fst ops.(1); disp })
            in
            add_pei slot nd.v_pc;
            consume ~keep:(-1) ops
          | K_pal _ ->
            let exit_id = Vec.length ctx.exits in
            Vec.push ctx.exits (Exitr.R_pal nd.v_pc);
            (* the PAL instruction itself retires in the interpreter on
               reentry, not here: leave its own credit (always pending at
               this point) out of the slot so it is not counted twice *)
            let slot =
              emit ~alpha:(take_alpha () - 1) ctx C_core (I.Call_xlate { exit_id })
            in
            add_pei slot nd.v_pc;
            block_done := true
          | K_br bk -> (
            match bk with
            | B_cond { cond; taken; v_taken; v_fall; ends } ->
              let ops = ops () in
              let v = fst ops.(0) in
              if ends then begin
                emit_cond_exit ~cls:C_core cond v ~v_target:v_taken;
                consume ~keep:(-1) ops;
                emit_uncond_exit ~v_target:v_fall ();
                block_done := true
              end
              else begin
                let cond, v_target =
                  if taken then
                    (* reverse so the hot path falls through *)
                    ( (match cond with
                      | Alpha.Insn.Eq -> Alpha.Insn.Ne
                      | Ne -> Eq | Lt -> Ge | Ge -> Lt
                      | Le -> Gt | Gt -> Le | Lbc -> Lbs | Lbs -> Lbc),
                      v_fall )
                  else (cond, v_taken)
                in
                emit_cond_exit ~cls:C_core cond v ~v_target;
                consume ~keep:(-1) ops
              end
            | B_uncond { v_target } ->
              (* straightened away unless it ends the block; its retirement
                 credit stays in [pending_alpha] *)
              if i = last then begin
                emit_uncond_exit ~cls:C_core ~v_target ();
                block_done := true
              end
            | B_call { v_target; v_ret; ret_reg } ->
              let slot =
                emit ~alpha:(take_alpha ()) ctx C_core
                  (I.Push_dras { g = ret_reg; v_ret; i_ret = -1 })
              in
              Tcache.Acc.on_translate ctx.tc v_ret (fun entry ->
                  Tcache.Acc.patch ctx.tc slot
                    (I.Push_dras { g = ret_reg; v_ret; i_ret = entry }));
              home.(i) <- ret_reg;
              def_slot.(i) <- slot;
              if reg_dirty_acc.(ret_reg) >= 0 then clear_dirty reg_dirty_acc.(ret_reg);
              if i = last then begin
                emit_uncond_exit ~v_target ();
                block_done := true
              end
            | B_jmp { v_ret; v_actual } ->
              let ops = ops () in
              let v = fst ops.(0) in
              (match v_ret with
              | Some (vr, ret_reg) ->
                let slot =
                  emit ~alpha:(take_alpha ()) ctx C_core
                    (I.Push_dras { g = ret_reg; v_ret = vr; i_ret = -1 })
                in
                home.(i) <- ret_reg;
                def_slot.(i) <- slot;
                if reg_dirty_acc.(ret_reg) >= 0 then
                  clear_dirty reg_dirty_acc.(ret_reg);
                Tcache.Acc.on_translate ctx.tc vr (fun entry ->
                    Tcache.Acc.patch ctx.tc slot
                      (I.Push_dras { g = ret_reg; v_ret = vr; i_ret = entry }))
              | None -> ());
              consume ~keep:(-1) ops;
              (match ctx.cfg.chaining with
              | Config.No_pred -> emit_dispatch_jump v
              | Config.Sw_pred_no_ras | Config.Sw_pred_ras ->
                emit_sw_pred v ~v_pred:v_actual);
              block_done := true
            | B_ret { v_actual } ->
              let ops = ops () in
              let v = fst ops.(0) in
              consume ~keep:(-1) ops;
              (match ctx.cfg.chaining with
              | Config.No_pred -> emit_dispatch_jump v
              | Config.Sw_pred_no_ras -> emit_sw_pred v ~v_pred:v_actual
              | Config.Sw_pred_ras ->
                ignore (emit ~alpha:(take_alpha ()) ctx C_core (I.Ret_dras { v }));
                emit_dispatch_jump v);
              block_done := true)
        end)
      nodes;
    if not !block_done then emit_uncond_exit ~v_target:v_continue ();
    Tcache.Acc.seal ctx.tc frag;
    Obs.bump c_emitted frag.n_slots;
    Cost.tick ctx.cost (frag.n_slots * Cost.install_per_insn)
  end
