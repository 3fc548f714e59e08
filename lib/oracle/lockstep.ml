module Memory = Machine.Memory

(* Lockstep differential oracle. See the interface for the comparison
   protocol and the boundary-granularity soundness argument. *)

type mode = {
  kind : Core.Vm.kind;
  isa : Core.Config.isa;
  chaining : Core.Config.chaining;
  fuse_mem : bool;
}

let chainings = Core.Config.[ No_pred; Sw_pred_no_ras; Sw_pred_ras ]

let all_modes =
  List.concat_map
    (fun chaining ->
      [
        { kind = Core.Vm.Acc; isa = Core.Config.Basic; chaining; fuse_mem = false };
        { kind = Core.Vm.Acc; isa = Core.Config.Modified; chaining; fuse_mem = false };
      ])
    chainings
  @ [
      (* Section 4.5's fused addressing, both ISAs, baseline chaining *)
      { kind = Core.Vm.Acc; isa = Core.Config.Basic;
        chaining = Core.Config.Sw_pred_ras; fuse_mem = true };
      { kind = Core.Vm.Acc; isa = Core.Config.Modified;
        chaining = Core.Config.Sw_pred_ras; fuse_mem = true };
    ]
  @ List.map
      (fun chaining ->
        { kind = Core.Vm.Straight_only; isa = Core.Config.Modified; chaining;
          fuse_mem = false })
      chainings

let mode_name m =
  match m.kind with
  | Core.Vm.Straight_only ->
    Printf.sprintf "straight/%s" (Core.Config.chaining_name m.chaining)
  | Core.Vm.Acc ->
    Printf.sprintf "acc/%s/%s%s"
      (Core.Config.isa_name m.isa)
      (Core.Config.chaining_name m.chaining)
      (if m.fuse_mem then "+fuse" else "")

let mode_of_name s = List.find_opt (fun m -> mode_name m = s) all_modes

type granularity = Boundary | Per_insn

type coverage = {
  retired : int;
  boundaries : int;
  insn_checks : int;
  superblocks : int;
  branch_exits : int;
  pal_exits : int;
  dispatch_misses : int;
  trap_recoveries : int;
  flushes : int;
  dras_hits : int;
  dras_misses : int;
  outcome : string;
  trap : string option;
}

type divergence = {
  d_mode : string;
  where : string;
  retired : int;
  mismatches : Snapshot.mismatch list;
  frag_disasm : string option;
  v_range : (int * int) option;
}

type result = Agree of coverage | Diverge of divergence

exception Diverged of divergence

let trap_kind = function
  | Alpha.Interp.Mem_fault _ -> "mem_fault"
  | Alpha.Interp.Unaligned _ -> "unaligned"
  | Alpha.Interp.Illegal _ -> "illegal"

(* VM-private memory, excluded from guest-state comparison: the in-memory
   dispatch table and the scratch page the straightening backend spills
   borrowed registers to. *)
let is_private =
  let cb = Memory.chunk_bits in
  let scratch = Alpha.Program.vm_scratch lsr cb in
  let t0 = Core.Translate.table_base lsr cb in
  let t1 = (Core.Translate.table_base + Core.Translate.table_bytes - 1) lsr cb in
  fun c -> c = scratch || (c >= t0 && c <= t1)

(* Disassemble the fragment whose translated code contains I-address
   [i_pc], for the divergence report. *)
let fragment_at vm i_pc =
  let dump_frag addr_of get (f : Core.Tcache.frag) =
    let b = Buffer.create 256 in
    Printf.bprintf b
      "fragment #%d @%#x (V %#x, %d V-insns, entered %d times):\n" f.id
      (addr_of f.entry_slot) f.v_start f.v_insns f.exec_count;
    for s = f.entry_slot to f.entry_slot + f.n_slots - 1 do
      Printf.bprintf b "  %5d: %s\n" s (get s)
    done;
    (Buffer.contents b, (f.v_start, f.v_insns))
  in
  let find addr_of frags =
    List.find_opt
      (fun (f : Core.Tcache.frag) ->
        let start = addr_of f.entry_slot in
        i_pc >= start && i_pc < start + f.i_bytes)
      frags
  in
  if i_pc < 0 then None
  else
    match (Core.Vm.acc_ctx vm, Core.Vm.straight_ctx vm) with
    | Some ctx, _ ->
      let addr_of = Core.Tcache.Acc.addr_of ctx.tc in
      find addr_of (Core.Tcache.Acc.fragments ctx.tc)
      |> Option.map
           (dump_frag addr_of (fun s ->
                Accisa.Disasm.to_string (Core.Tcache.Acc.get ctx.tc s)))
    | None, Some ctx ->
      let addr_of = Core.Tcache.Straight.addr_of ctx.tc in
      find addr_of (Core.Tcache.Straight.fragments ctx.tc)
      |> Option.map
           (dump_frag addr_of (fun s ->
                Alpha.Disasm.to_string (Core.Tcache.Straight.get ctx.tc s)))
    | None, None -> None

let run ?(granularity = Boundary) ?(threaded = false) ?(flush_every = 0)
    ?(fuel = 50_000_000) ?(hot_threshold = 10) ?(tcache_max_slots = max_int)
    ?(warm_start = false) ?corrupt ~mode prog =
  (* per-instruction comparison is unsound mid-fragment for accumulator
     backends (deferred state copies); restrict it to straightened code.
     A [threaded] run attaches no sink, so it degrades to boundary
     granularity too. *)
  let granularity =
    match mode.kind with
    | Core.Vm.Acc -> Boundary
    | Core.Vm.Straight_only -> if threaded then Boundary else granularity
  in
  let golden = Alpha.Interp.create prog in
  (* the engine is named, not inherited from [Config.default]: the
     plain and warm-start arms check the matched engine under a sink, the
     [threaded] arm the threaded engine without one *)
  let cfg =
    { Core.Config.default with
      isa = mode.isa; chaining = mode.chaining; fuse_mem = mode.fuse_mem;
      hot_threshold; tcache_max_slots;
      engine = (if threaded then Core.Config.Threaded else Core.Config.Matched) }
  in
  (* Warm start under test: run a throwaway VM of the same configuration
     cold to completion, snapshot its translation cache, push the snapshot
     through the full byte encoding (codec + CRC, exactly what a file sees),
     and build the VM under comparison from that. The oracle then proves a
     snapshot-loaded VM observationally identical to a cold one. *)
  let snapshot =
    if not warm_start then None
    else begin
      let seed = Core.Vm.create ~cfg ~kind:mode.kind prog in
      ignore (Core.Vm.run ~fuel seed : Core.Vm.outcome);
      Some
        (Persist.Snapshot.of_string
           (Persist.Snapshot.to_string (Core.Vm.save_snapshot seed)))
    end
  in
  let vm = Core.Vm.create ~cfg ?snapshot ~kind:mode.kind prog in
  (* dirty tracking from here on: the loaded images are identical, so the
     write sets alone bound where the states can differ before the final
     full-image comparison *)
  Memory.set_dirty_tracking golden.mem true;
  Memory.set_dirty_tracking vm.interp.mem true;
  let mode_str = mode_name mode in
  let retired () =
    vm.interp.icount
    + (Core.Vm.engine_stats vm).alpha_retired
  in
  let boundaries = ref 0 in
  let insn_checks = ref 0 in
  let last_i_pc = ref (-1) in
  (* golden termination reached while advancing (None while running) *)
  let golden_end = ref None in
  let fail ~where mismatches =
    let frag = fragment_at vm !last_i_pc in
    raise
      (Diverged
         {
           d_mode = mode_str;
           where;
           retired = retired ();
           mismatches;
           frag_disasm = Option.map fst frag;
           v_range = Option.map snd frag;
         })
  in
  let golden_running () =
    match !golden_end with None -> true | Some _ -> false
  in
  (* Single-step the reference to the VM's retirement count. *)
  let advance ~where target =
    while golden.icount < target && golden_running () do
      match Alpha.Interp.step golden with
      | Step _ -> ()
      | Halted c -> golden_end := Some (Core.Vm.Exit c)
      | Trapped tr -> golden_end := Some (Core.Vm.Fault tr)
    done;
    if golden.icount < target then
      fail ~where [ Snapshot.Retire { got = target; want = golden.icount } ]
  in
  let check ~where ~mem =
    advance ~where (retired ());
    let ms =
      Snapshot.diff_live ~is_private ~mem ~got:vm.interp ~want:golden ()
    in
    if ms <> [] then fail ~where ms
  in
  let seg_name () =
    match vm.last_seg with
    | Some (Core.Vm.Seg_branch _) -> "branch exit"
    | Some (Core.Vm.Seg_pal _) -> "pal exit"
    | Some Core.Vm.Seg_dispatch_miss -> "dispatch miss"
    | Some Core.Vm.Seg_trap_recovered -> "trap recovery"
    | Some Core.Vm.Seg_fuel -> "fuel"
    | None -> "?"
  in
  let boundary () =
    match vm.last_seg with
    | Some Core.Vm.Seg_fuel ->
      (* the budget can run out mid-fragment, where architected state
         legitimately lags — nothing sound to compare here *)
      ()
    | _ ->
      incr boundaries;
      check
        ~where:(Printf.sprintf "boundary %d (%s)" !boundaries (seg_name ()))
        ~mem:`Dirty;
      (match corrupt with Some f -> f !boundaries vm | None -> ());
      if flush_every > 0 && !boundaries mod flush_every = 0 then
        Core.Vm.flush vm
  in
  let sink (ev : Machine.Ev.t) =
    last_i_pc := ev.pc;
    match granularity with
    | Per_insn when ev.alpha_count > 0 ->
      incr insn_checks;
      check ~where:(Printf.sprintf "insn @%#x" ev.pc) ~mem:`None
    | Per_insn | Boundary -> ()
  in
  try
    (* [threaded] runs sink-less on the threaded-code engine: the oracle
       then validates that engine, at the cost of losing the
       fragment-disassembly context in divergence reports *)
    let sink = if threaded then None else Some sink in
    let outcome = Core.Vm.run ?sink ~boundary ~fuel vm in
    let outcome_str, trap =
      match outcome with
      | Core.Vm.Exit c -> (Printf.sprintf "exit:%d" c, None)
      | Core.Vm.Fault tr -> ("trap:" ^ trap_kind tr, Some (trap_kind tr))
      | Core.Vm.Out_of_fuel -> ("fuel", None)
    in
    (match outcome with
    | Core.Vm.Out_of_fuel ->
      (* the VM may have stopped mid-fragment; no final state to compare *)
      ()
    | vm_end ->
      check ~where:"final" ~mem:`Full;
      let golden_outcome =
        match !golden_end with
        | Some o -> o
        | None -> (
          match Alpha.Interp.step golden with
          | Halted c -> Core.Vm.Exit c
          | Trapped tr -> Core.Vm.Fault tr
          | Step _ -> Core.Vm.Out_of_fuel (* still running: mismatch below *))
      in
      if golden_outcome <> vm_end then begin
        let show = function
          | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
          | Core.Vm.Fault tr ->
            Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
          | Core.Vm.Out_of_fuel -> "still running"
        in
        fail ~where:"final outcome"
          [ Snapshot.Outcome { got = show vm_end; want = show golden_outcome } ]
      end);
    let st = Core.Vm.engine_stats vm in
    let dras_hits = st.ret_dras_hits and dras_misses = st.ret_dras_misses in
    Agree
      {
        retired = retired ();
        boundaries = !boundaries;
        insn_checks = !insn_checks;
        superblocks = vm.superblocks;
        branch_exits = vm.segs.branch_exits;
        pal_exits = vm.segs.pal_exits;
        dispatch_misses = vm.segs.dispatch_misses;
        trap_recoveries = vm.segs.trap_recoveries;
        flushes = vm.segs.flushes;
        dras_hits;
        dras_misses;
        outcome = outcome_str;
        trap;
      }
  with Diverged d -> Diverge d

let pp_divergence fmt d =
  Format.fprintf fmt "DIVERGENCE [%s] at %s (retired=%d)@\n" d.d_mode d.where
    d.retired;
  List.iter
    (fun m -> Format.fprintf fmt "  %a@\n" Snapshot.pp_mismatch m)
    d.mismatches;
  (match d.v_range with
  | Some (v, n) ->
    Format.fprintf fmt "  offending V-range: %#x..%#x (%d V-insns)@\n" v
      (v + (4 * n)) n
  | None -> ());
  match d.frag_disasm with
  | Some s -> Format.fprintf fmt "%s" s
  | None -> Format.fprintf fmt "  (no fragment contains the last I-PC)@\n"
