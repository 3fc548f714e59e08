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
  ]
