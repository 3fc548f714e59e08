(* Differential tests for the threaded-code execution engine: sink-less
   VM runs through the closure-compiled path must be observationally
   identical to the instrumented match engine: same architected state,
   same statistics, same segment accounting — across every
   backend/ISA/chaining mode, across cache flushes, and through trap/PEI
   repair. A final case attaches a sink to both engines: the threaded
   one must run its compiled closures and emit the matched engine's
   event stream exactly. *)

open Oracle

let check = Alcotest.check

(* Everything observable about a sink-less VM run, rendered to one string
   so a mismatch report shows the complete picture. *)
type obs = {
  outcome : string;
  output : string;
  checksum : int64;
  i_exec : int;
  by_class : int array;
  alpha : int;
  frag_enters : int;
  dras_hits : int;
  dras_misses : int;
  interp : int;
  superblocks : int;
  segs : int * int * int * int * int;
  flushes : int;
  compiled : int; (* closure-compiled slots; 0 on the matched engine *)
}

let show o =
  let b1, b2, b3, b4, b5 = o.segs in
  Printf.sprintf
    "outcome=%s output=%S regs=%#Lx i_exec=%d by_class=[%s] alpha=%d \
     frag_enters=%d dras=%d/%d interp=%d superblocks=%d \
     segs=%d/%d/%d/%d/%d flushes=%d"
    o.outcome o.output o.checksum o.i_exec
    (String.concat ";" (Array.to_list (Array.map string_of_int o.by_class)))
    o.alpha o.frag_enters o.dras_hits o.dras_misses o.interp o.superblocks b1
    b2 b3 b4 b5 o.flushes

let run_vm ~engine ?(flush_every = 0) ?sink ~(mode : Lockstep.mode) prog : obs
    =
  let cfg =
    {
      Core.Config.default with
      isa = mode.isa;
      chaining = mode.chaining;
      fuse_mem = mode.fuse_mem;
      hot_threshold = 10;
      engine;
    }
  in
  let vm = Core.Vm.create ~cfg ~kind:mode.kind prog in
  let boundaries = ref 0 in
  let boundary () =
    incr boundaries;
    if flush_every > 0 && !boundaries mod flush_every = 0 then Core.Vm.flush vm
  in
  let outcome = Core.Vm.run ?sink ~boundary ~fuel:10_000_000 vm in
  let outcome =
    match outcome with
    | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
    | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
    | Core.Vm.Out_of_fuel -> "fuel"
  in
  let st = Core.Vm.engine_stats vm in
  {
    outcome;
    output = Core.Vm.output vm;
    checksum = Core.Vm.reg_checksum vm;
    i_exec = st.i_exec;
    by_class = Array.copy st.by_class;
    alpha = st.alpha_retired;
    frag_enters = st.frag_enters;
    dras_hits = st.ret_dras_hits;
    dras_misses = st.ret_dras_misses;
    interp = vm.interp_insns;
    superblocks = vm.superblocks;
    segs =
      ( vm.segs.branch_exits,
        vm.segs.pal_exits,
        vm.segs.dispatch_misses,
        vm.segs.trap_recoveries,
        vm.segs.fuel_stops );
    flushes = vm.segs.flushes;
    compiled = (match vm.eng with Core.Vm.E (_, _, e) -> e.ops_len);
  }

let check_engines name ?flush_every ~mode prog =
  let threaded = run_vm ~engine:Core.Config.Threaded ?flush_every ~mode prog in
  let matched = run_vm ~engine:Core.Config.Matched ?flush_every ~mode prog in
  check Alcotest.string name (show matched) (show threaded);
  threaded

(* ---------- generated programs, every mode ---------- *)

let test_engines_agree () =
  let translated = ref 0 in
  for seed = 1 to 6 do
    let prog = Gen.generate ~seed in
    let image = Gen.assemble prog in
    List.iter
      (fun mode ->
        let name =
          Printf.sprintf "seed %d %s" seed (Lockstep.mode_name mode)
        in
        let o = check_engines name ~mode image in
        translated := !translated + o.alpha)
      Lockstep.all_modes
  done;
  check Alcotest.bool "translated code was exercised" true (!translated > 0)

(* ---------- cache flushes mid-run (generation bump, full recompile) --- *)

let test_engines_agree_with_flush () =
  for seed = 1 to 4 do
    let prog = Gen.generate ~seed in
    let image = Gen.assemble prog in
    List.iter
      (fun mode ->
        let name =
          Printf.sprintf "flush seed %d %s" seed (Lockstep.mode_name mode)
        in
        let o = check_engines name ~flush_every:3 ~mode image in
        ignore o)
      Lockstep.all_modes
  done

(* ---------- trap/PEI repair through compiled closures ---------- *)

(* The faulting memory access sits on a translated hot path: a flag that
   is zero on all but one iteration steers its effective address, so the
   fault fires from inside a fragment and recovery must run through the
   PEI tables (closure cold path). *)
let trap_image body =
  Alpha.Assembler.assemble
    (Printf.sprintf
       {|
  .text
_start:
  la fp, buf
  ldiq t0, 9
  ldiq t8, 30
loop:
  cmpeq t8, 4, t9
%s
  addq t0, 1, t0
  subq t8, 1, t8
  bne t8, loop
  clr v0
  call_pal 0
  .data
  .align 8
buf:
  .space 64
|}
       body)

let trap_modes =
  List.filter
    (fun (m : Lockstep.mode) ->
      m.chaining = Core.Config.Sw_pred_ras && not m.fuse_mem)
    Lockstep.all_modes

let trap_cases =
  [
    ("unaligned load", "  addq t9, fp, t10\n  ldq t1, 0(t10)");
    ("unaligned store", "  addq t9, fp, t10\n  stq t0, 0(t10)");
    ("unmapped load", "  sll t9, 23, t10\n  addq t10, fp, t10\n  ldq t1, 0(t10)");
    ("unmapped store", "  sll t9, 23, t10\n  addq t10, fp, t10\n  stq t0, 0(t10)");
  ]

let test_trap_repair_identical () =
  List.iter
    (fun (what, body) ->
      let image = trap_image body in
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "%s %s" what (Lockstep.mode_name mode)
          in
          let o = check_engines name ~mode image in
          let _, _, _, recoveries, _ = o.segs in
          check Alcotest.bool (name ^ ": recovered via PEI") true
            (recoveries > 0))
        trap_modes)
    trap_cases

(* ---------- timed runs: both engines emit the same events ---------- *)

let show_ev (e : Machine.Ev.t) =
  Printf.sprintf "pc=%#x ea=%#x taken=%b target=%#x alpha=%d" e.pc e.ea e.taken
    e.target e.alpha_count

let record ~engine ?flush_every ~mode image =
  let evs = ref [] in
  let sink ev = evs := ev :: !evs in
  let o = run_vm ~engine ?flush_every ~sink ~mode image in
  (o, List.rev !evs)

let check_events name ?flush_every ~mode image =
  let ot, evt = record ~engine:Core.Config.Threaded ?flush_every ~mode image in
  let om, evm = record ~engine:Core.Config.Matched ?flush_every ~mode image in
  check Alcotest.string (name ^ ": state and statistics") (show om) (show ot);
  check Alcotest.bool (name ^ ": threaded run compiled closures") true
    (ot.compiled > 0);
  check Alcotest.int (name ^ ": event count") (List.length evm)
    (List.length evt);
  check Alcotest.int (name ^ ": one event per executed slot") ot.i_exec
    (List.length evt);
  List.iteri
    (fun i (m, t) ->
      if m <> t then
        Alcotest.failf "%s: event %d differs\n  matched  %s\n  threaded %s"
          name i (show_ev m) (show_ev t))
    (List.combine evm evt);
  ot

(* A hot call and return around a load and a store: returns verify
   through the dual-address RAS, or through software prediction. The
   branch to [rare] is taken once, after the loop is translated, so it
   leaves the fragment through a taken conditional exit. *)
let call_image =
  Alpha.Assembler.assemble
    {|
  .text
_start:
  la fp, buf
  ldiq t8, 60
loop:
  mov t8, a0
  bsr ra, work
  addq t0, v0, t0
  cmpeq t8, 7, t2
  bne t2, rare
back:
  subq t8, 1, t8
  bne t8, loop
  clr v0
  call_pal 0
rare:
  addq t0, 1, t0
  br back
work:
  stq a0, 0(fp)
  ldq t1, 0(fp)
  addq t1, t1, v0
  ret
  .data
  .align 8
buf:
  .space 64
|}

let test_events_identical () =
  let gen = Gen.assemble (Gen.generate ~seed:3) in
  List.iter
    (fun mode ->
      let m = Lockstep.mode_name mode in
      List.iter
        (fun (what, body) ->
          let name = what ^ " " ^ m in
          let o = check_events name ~mode (trap_image body) in
          let _, _, _, recoveries, _ = o.segs in
          check Alcotest.bool (name ^ ": recovered via PEI") true
            (recoveries > 0))
        trap_cases;
      let o = check_events ("call " ^ m) ~mode call_image in
      if mode.chaining = Core.Config.Sw_pred_ras then
        check Alcotest.bool (m ^ ": dual-RAS hits") true (o.dras_hits > 0);
      ignore (check_events ("seed 3 " ^ m) ~mode gen);
      ignore (check_events ("flush seed 3 " ^ m) ~flush_every:3 ~mode gen))
    Lockstep.all_modes

(* ---------- the compiled evaluator against the reference ---------- *)

(* Edge operands: zero, +-1, the extremes, 32-bit boundaries, and values
   whose low bits make shift and byte-select counts >= 64 or wrap. *)
let edge_operands =
  [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0xffffffffL; 0x80000000L;
    0x7fffffffL; 63L; 64L; 65L; 127L; 255L; 256L; -64L; 0x0123456789abcdefL ]

let all_op3 : Alpha.Insn.op3 list =
  [ Addl; Addq; Subl; Subq; S4addl; S4addq; S8addl; S8addq; S4subl; S4subq;
    S8subl; S8subq; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule; Cmpbge; And_; Bic;
    Bis; Ornot; Xor; Eqv; Sll; Srl; Sra; Extbl; Extwl; Extll; Extql; Extwh;
    Extlh; Extqh; Insbl; Inswl; Insll; Insql; Mskbl; Mskwl; Mskll; Mskql; Zap;
    Zapnot; Mull; Mulq; Umulh; Sextb; Sextw; Ctpop; Ctlz; Cttz ]

let all_conds : Alpha.Insn.cond list = [ Eq; Ne; Lt; Ge; Le; Gt; Lbc; Lbs ]

(* Each operator is checked on every pair of edge operands, and on random
   pairs through qcheck; both lists cover the arms that fall back to
   [eval_op] as well as the inlined ones. *)
let test_eval_edges () =
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let want = Alpha.Insn.eval_op op a b in
              let got = Core.Engine.eval op a b in
              if not (Int64.equal got want) then
                Alcotest.failf "%s %#Lx, %#Lx: engine %#Lx, reference %#Lx"
                  (Alpha.Disasm.opr_name op) a b got want)
            edge_operands)
        edge_operands)
    all_op3;
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          check Alcotest.bool "cond" (Alpha.Insn.cond_true c v)
            (Core.Engine.holds c v))
        edge_operands)
    all_conds

let prop_eval_random =
  QCheck.Test.make ~count:2000 ~name:"compiled evaluator = eval_op, cond_true"
    QCheck.(triple (int_bound (List.length all_op3 - 1)) int64 int64)
    (fun (k, a, b) ->
      let op = List.nth all_op3 k in
      Int64.equal (Core.Engine.eval op a b) (Alpha.Insn.eval_op op a b)
      && List.for_all
           (fun c -> Core.Engine.holds c a = Alpha.Insn.cond_true c a)
           all_conds)

(* ---------- allocation on the translated data path ---------- *)

(* Guest registers and memory are unboxed, so translated code allocates
   nothing per instruction; what a run still allocates comes from
   translation, interpretation and segment bookkeeping. The count is
   deterministic. Measured on a threaded gzip run at scale 1: 1.11 minor
   words per retired V-insn, against 3.24 with boxed int64 registers and a
   hashed chunk map; the bound is twice the measured value. *)
let minor_words_per_insn_bound = 2.21

(* Every cell-shaped closure builder, in every destination shape, runs
   without allocating: operands, results and loaded values stay unboxed.
   (The rare operators that call [eval_op] are left out.) *)
let test_closures_allocate_nothing () =
  let w = Option.get (Workloads.find "gzip") in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc (Workloads.program ~scale:1 w) in
  let e = Option.get (Core.Vm.acc_exec vm) in
  let open Core.Engine in
  let regs = Bytes.make 64 '\001' in
  let cell i : cell = (regs, 8 * i) in
  let dsts =
    [ D_none; D_cell (cell 2); D_acc (regs, 24, 60);
      D_acc_gpr (regs, 24, 60, cell 4) ]
  in
  let mem = e.interp.mem in
  let heap = Alpha.Program.data_base in
  set64 regs 40 (Int64.of_int heap);
  Machine.Memory.set_i64 mem heap 5L;
  let ops =
    List.concat_map
      (fun d ->
        List.map
          (fun op -> alu op d (cell 0) (cell 1) ~next:1)
          [ Alpha.Insn.Addl; Addq; Subq; S8addq; Cmplt; Cmpult; Bic; Xor; Sll;
            Sra; Mull; Mulq; Sextb ]
        @ [ move d (cell 1) ~next:1;
            select (regs, 60) (cell 0) (cell 1) d ~next:1;
            load Ld_q mem d (cell 5) 8 ~next:1;
            load Ld_l mem d (cell 5) 4 ~next:1;
            load Ld_bu mem d (cell 5) 3 ~next:1 ]
        @
        match d with
        | D_acc _ | D_acc_gpr _ ->
          [ cmov_test Alpha.Insn.Lt (cell 0) (cell 1) d ~next:1 ]
        | D_cell _ -> [ cmov Alpha.Insn.Ne (cell 0) (cell 1) d ~next:1 ]
        | D_none -> [])
      dsts
    @ [ store St_q mem (cell 1) (cell 5) 16 ~next:1;
        store St_w mem (cell 1) (cell 5) 18 ~next:1;
        bc Alpha.Insn.Eq (cell 0) ~target:0 None ~next:1;
        exit_if Alpha.Insn.Gt (cell 0) ~code:(-2) ~next:1 ]
  in
  List.iteri
    (fun k op ->
      ignore (op e : int);
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (op e) : int)
      done;
      let words = Gc.minor_words () -. w0 in
      if words > 10.0 then
        Alcotest.failf "closure %d allocated %.0f words in 1000 runs" k words)
    ops

let test_alloc_per_insn () =
  let w = Option.get (Workloads.find "gzip") in
  let prog = Minic.compile (w.source ~scale:1) in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
  let w0 = Gc.minor_words () in
  let o = Core.Vm.run vm in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool "gzip exits" true
    (match o with Core.Vm.Exit _ -> true | _ -> false);
  let insns = vm.interp_insns + (Core.Vm.engine_stats vm).alpha_retired in
  let per_insn = words /. float_of_int insns in
  if per_insn > minor_words_per_insn_bound then
    Alcotest.failf "%.3f minor words per V-insn, above the bound %.2f"
      per_insn minor_words_per_insn_bound

let suite =
  [
    Alcotest.test_case "closure vs match engine, all modes" `Quick
      test_engines_agree;
    Alcotest.test_case "closure vs match engine under flushes" `Quick
      test_engines_agree_with_flush;
    Alcotest.test_case "trap/PEI repair identical" `Quick
      test_trap_repair_identical;
    Alcotest.test_case "threaded and matched engines emit identical events"
      `Quick test_events_identical;
    Alcotest.test_case "compiled evaluator on edge operands" `Quick
      test_eval_edges;
    QCheck_alcotest.to_alcotest prop_eval_random;
    Alcotest.test_case "cell closures allocate nothing" `Quick
      test_closures_allocate_nothing;
    Alcotest.test_case "translated code allocates little" `Quick
      test_alloc_per_insn;
  ]
