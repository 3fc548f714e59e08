(* Timing-model tests: bandwidth/latency sanity, predictor accounting, and
   end-to-end IPC plausibility on real translated workloads. *)

open Machine

let check = Alcotest.check

let mk_ev ?(pc = 0x1000) ?(cls = Ev.Alu) ?(src1 = -1) ?(dst = -1) ?(ea = 0)
    ?(taken = false) ?(target = 0) ?(pred = Ev.Not_control) ?(acc = -1)
    ?(strand_start = false) () =
  { Ev.default with pc; cls; src1; dst; ea; taken; target; pred; acc;
    strand_start; alpha_count = 1 }

(* ---------- slots ---------- *)

let test_slots_bandwidth () =
  let s = Uarch.Slots.create ~width:2 in
  check Alcotest.int "slot 1" 10 (Uarch.Slots.book s 10);
  check Alcotest.int "slot 2" 10 (Uarch.Slots.book s 10);
  check Alcotest.int "overflow to next cycle" 11 (Uarch.Slots.book s 10);
  check Alcotest.int "later request ok" 20 (Uarch.Slots.book s 20)

(* ---------- ooo model ---------- *)

let test_ooo_ideal_ipc () =
  (* 4-wide machine fed independent single-cycle ops: IPC must approach 4 *)
  let m = Uarch.Ooo.create () in
  for i = 0 to 9999 do
    Uarch.Ooo.feed m (mk_ev ~pc:(0x1000 + (4 * (i mod 8))) ~dst:(i mod 16) ())
  done;
  let ipc = Uarch.Ooo.ipc m in
  check Alcotest.bool (Printf.sprintf "ipc near 4 (%.2f)" ipc) true
    (ipc > 3.5 && ipc <= 4.0)

let test_ooo_dependence_chain () =
  (* a strict dependence chain cannot exceed IPC 1 *)
  let m = Uarch.Ooo.create () in
  for i = 0 to 4999 do
    Uarch.Ooo.feed m (mk_ev ~pc:(0x1000 + (4 * (i mod 8))) ~src1:0 ~dst:0 ())
  done;
  let ipc = Uarch.Ooo.ipc m in
  check Alcotest.bool (Printf.sprintf "chain ipc <= 1 (%.2f)" ipc) true
    (ipc <= 1.01)

let test_ooo_mul_latency () =
  (* dependent multiplies: ~1/7 IPC *)
  let m = Uarch.Ooo.create () in
  for i = 0 to 2099 do
    Uarch.Ooo.feed m
      (mk_ev ~pc:(0x1000 + (4 * (i mod 8))) ~cls:Ev.Mul ~src1:0 ~dst:0 ())
  done;
  let ipc = Uarch.Ooo.ipc m in
  check Alcotest.bool (Printf.sprintf "mul chain ipc ~1/7 (%.3f)" ipc) true
    (ipc < 0.16 && ipc > 0.12)

let test_ooo_mispredict_penalty () =
  (* alternating direction-heavy unpredictable branches hurt IPC *)
  let rng = Machine.Rng.create 7 in
  let run ~random =
    let m = Uarch.Ooo.create () in
    for _i = 0 to 9999 do
      let taken = if random then Machine.Rng.bool rng else true in
      Uarch.Ooo.feed m
        (mk_ev ~pc:0x2000 ~cls:Ev.Cond_br ~taken
           ~target:(if taken then 0x3000 else 0x2004)
           ~pred:Ev.P_cond ());
      for k = 0 to 2 do
        Uarch.Ooo.feed m (mk_ev ~pc:(0x3000 + (4 * k)) ~dst:(k + 1) ())
      done
    done;
    Uarch.Ooo.ipc m
  in
  let predictable = run ~random:false in
  let unpredictable = run ~random:true in
  check Alcotest.bool
    (Printf.sprintf "random branches slower (%.2f < %.2f)" unpredictable predictable)
    true
    (unpredictable < predictable *. 0.7)

let test_ooo_dcache_miss_hurts () =
  let run stride =
    let m = Uarch.Ooo.create () in
    for i = 0 to 9999 do
      Uarch.Ooo.feed m
        (mk_ev ~cls:Ev.Load ~ea:(0x100000 + (i * stride)) ~src1:0 ~dst:1 ())
    done;
    Uarch.Ooo.ipc m
  in
  let hits = run 0 and misses = run 4096 in
  check Alcotest.bool
    (Printf.sprintf "thrashing loads slower (%.3f < %.3f)" misses hits)
    true (misses < hits /. 2.0)

(* ---------- ildp model ---------- *)

let test_ildp_parallel_strands () =
  (* 8 independent strands on 8 PEs: near-width IPC; on 1 PE: ~1 *)
  let run n_pe =
    let m =
      Uarch.Ildp.create
        ~params:{ Uarch.Ildp.default_params with n_pe; comm = 0 }
        ()
    in
    for i = 0 to 9999 do
      let acc = i mod 8 in
      Uarch.Ildp.feed m
        (mk_ev ~pc:(0x1000 + (4 * (i mod 8)))
           ~src1:(Ev.acc_token acc) ~dst:(Ev.acc_token acc) ~acc
           ~strand_start:(i < 8) ())
    done;
    Uarch.Ildp.ipc m
  in
  let wide = run 8 and narrow = run 1 in
  check Alcotest.bool (Printf.sprintf "8 PEs near 4-wide (%.2f)" wide) true
    (wide > 3.0);
  check Alcotest.bool (Printf.sprintf "1 PE serialises (%.2f)" narrow) true
    (narrow <= 1.01)

let test_ildp_comm_latency_costs () =
  (* a ping-pong dependence through GPRs between two strands *)
  let run comm =
    let m =
      Uarch.Ildp.create
        ~params:{ Uarch.Ildp.default_params with n_pe = 4; comm }
        ()
    in
    for i = 0 to 4999 do
      let acc = i mod 2 in
      (* each instruction reads the other strand's GPR output *)
      Uarch.Ildp.feed m
        (mk_ev
           ~pc:(0x1000 + (4 * (i mod 8)))
           ~src1:(1 - (i mod 2)) (* GPR written by the other strand *)
           ~dst:(i mod 2) ~acc
           ~strand_start:(i < 2) ())
    done;
    Uarch.Ildp.v_ipc m
  in
  let fast = run 0 and slow = run 2 in
  check Alcotest.bool (Printf.sprintf "comm=2 slower (%.3f < %.3f)" slow fast)
    true (slow < fast)

let test_ildp_boundary_drains () =
  let m = Uarch.Ildp.create () in
  for _ = 0 to 99 do
    Uarch.Ildp.feed m (mk_ev ~cls:Ev.Mul ~src1:0 ~dst:0 ())
  done;
  let c1 = Uarch.Ildp.cycles m in
  Uarch.Ildp.boundary m;
  Uarch.Ildp.feed m (mk_ev ());
  check Alcotest.bool "post-boundary fetch after drain" true
    (Uarch.Ildp.cycles m >= c1)

(* ---------- pred ---------- *)

let test_pred_counts_cond_mispredicts () =
  let p = Uarch.Pred.create () in
  let rng = Machine.Rng.create 99 in
  for _ = 0 to 999 do
    let taken = Machine.Rng.bool rng in
    ignore
      (Uarch.Pred.classify p
         (mk_ev ~pc:0x4000 ~cls:Ev.Cond_br ~taken ~target:0x5000 ~pred:Ev.P_cond ()))
  done;
  let mpki = Uarch.Pred.mpki p ~insns:1000 in
  check Alcotest.bool (Printf.sprintf "random branch mpki high (%.0f)" mpki) true
    (mpki > 300.0)

let test_pred_ras_nested () =
  let p = Uarch.Pred.create () in
  (* call call ret ret, correctly paired: no ret mispredicts *)
  let call pc target =
    ignore
      (Uarch.Pred.classify p
         (mk_ev ~pc ~cls:Ev.Call ~taken:true ~target ~pred:Ev.P_ras_call ()))
  in
  let ret pc target =
    Uarch.Pred.classify p
      (mk_ev ~pc ~cls:Ev.Ret ~taken:true ~target ~pred:Ev.P_ras_ret ())
  in
  call 0x1000 0x2000;
  call 0x2000 0x3000;
  check Alcotest.bool "inner ret predicted" true (ret 0x310 0x2004 = `Taken_ok);
  check Alcotest.bool "outer ret predicted" true (ret 0x210 0x1004 = `Taken_ok);
  check Alcotest.int "no mispredicts" 0 p.mispredicts

(* One case per [Ev.pred] kind, each from a fresh predictor unless the
   case trains it first. *)
let test_pred_outcome_table () =
  let name = function
    | `Seq -> "seq"
    | `Taken_ok -> "taken_ok"
    | `Misfetch -> "misfetch"
    | `Mispredict -> "mispredict"
  in
  let classify ?(p = Uarch.Pred.create ()) ?(pc = 0x1000) ?(taken = true) cls
      pred target =
    name (Uarch.Pred.classify p (mk_ev ~pc ~cls ~taken ~target ~pred ()))
  in
  let expect what want got = check Alcotest.string what want got in
  expect "not control" "seq" (classify Ev.Alu Ev.Not_control 0 ~taken:false);
  expect "dual-RAS push" "seq" (classify Ev.Alu Ev.P_dras_call 0 ~taken:false);
  (* dual-RAS return: taken exactly when the pair verified *)
  expect "dual-RAS return hit" "taken_ok" (classify Ev.Ret Ev.P_dras_ret 0x2000);
  expect "dual-RAS return miss" "mispredict"
    (classify Ev.Ret Ev.P_dras_ret 0x1004 ~taken:false);
  (* conditional: counters start weakly taken *)
  expect "cond not-taken against weakly-taken counter" "mispredict"
    (classify Ev.Cond_br Ev.P_cond 0x1004 ~taken:false);
  let p = Uarch.Pred.create () in
  expect "cond taken, BTB cold" "misfetch" (classify ~p Ev.Cond_br Ev.P_cond 0x2000);
  expect "cond taken, BTB warm" "taken_ok" (classify ~p Ev.Cond_br Ev.P_cond 0x2000);
  (* direct jump: the decoder can compute the target, a BTB miss misfetches *)
  let p = Uarch.Pred.create () in
  expect "direct, BTB cold" "misfetch" (classify ~p Ev.Jump Ev.P_direct 0x2000);
  expect "direct, BTB warm" "taken_ok" (classify ~p Ev.Jump Ev.P_direct 0x2000);
  expect "direct, retargeted" "misfetch" (classify ~p Ev.Jump Ev.P_direct 0x3000);
  check Alcotest.int "direct: 2 misfetches" 2 p.misfetches;
  check Alcotest.int "direct: no mispredicts" 0 p.mispredicts;
  (* indirect jump: a wrong BTB target is a full mispredict *)
  let p = Uarch.Pred.create () in
  expect "indirect, BTB cold" "mispredict" (classify ~p Ev.Jump Ev.P_indirect 0x2000);
  expect "indirect, BTB warm" "taken_ok" (classify ~p Ev.Jump Ev.P_indirect 0x2000);
  expect "indirect, retargeted" "mispredict"
    (classify ~p Ev.Jump Ev.P_indirect 0x3000);
  check Alcotest.int "indirect: 3 control" 3 p.control;
  (* calls push the RAS whatever the BTB says *)
  let p = Uarch.Pred.create () in
  expect "direct call, BTB cold" "misfetch" (classify ~p Ev.Call Ev.P_ras_call 0x2000);
  expect "indirect call, BTB cold" "mispredict"
    (classify ~p ~pc:0x2000 Ev.Call Ev.P_ras_call_ind 0x3000);
  expect "return to the indirect call" "taken_ok"
    (classify ~p ~pc:0x3000 Ev.Ret Ev.P_ras_ret 0x2004);
  expect "return to the direct call" "taken_ok"
    (classify ~p ~pc:0x2008 Ev.Ret Ev.P_ras_ret 0x1004);
  expect "return on an empty RAS" "mispredict"
    (classify ~p ~pc:0x1008 Ev.Ret Ev.P_ras_ret 0x4000);
  let p = Uarch.Pred.create () in
  ignore (classify ~p Ev.Call Ev.P_ras_call 0x2000);
  expect "return to the wrong address" "mispredict"
    (classify ~p ~pc:0x2008 Ev.Ret Ev.P_ras_ret 0x5000);
  (* without the RAS a return is a BTB-predicted indirect jump *)
  let p = Uarch.Pred.create ~use_ras:false () in
  ignore (classify ~p Ev.Call Ev.P_ras_call 0x2000);
  expect "no RAS: return, BTB cold" "mispredict"
    (classify ~p ~pc:0x2008 Ev.Ret Ev.P_ras_ret 0x1004);
  expect "no RAS: return, BTB warm" "taken_ok"
    (classify ~p ~pc:0x2008 Ev.Ret Ev.P_ras_ret 0x1004);
  expect "no RAS: return, retargeted" "mispredict"
    (classify ~p ~pc:0x2008 Ev.Ret Ev.P_ras_ret 0x1104)

(* ---------- end-to-end: translated code through the timing models ---------- *)

let fig2_src =
  {|
  .text
_start:
  la    a0, buf
  ldiq  a1, 2000
  clr   v0
  clr   t0
L1:
  ldbu  t2, 0(a0)
  subq  a1, 1, a1
  lda   a0, 1(a0)
  xor   t0, t2, t2
  srl   t0, 8, t0
  and   t2, 0xff, t2
  s8addq t2, v0, t2
  addq  t2, t0, t0
  bne   a1, L1
  clr   v0
  call_pal 0
  .data
buf:
  .space 2048
  |}

let test_end_to_end_ildp_ipc () =
  let prog = Alpha.Assembler.assemble fig2_src in
  let cfg = { Core.Config.default with isa = Core.Config.Modified } in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  let m = Uarch.Ildp.create () in
  let outcome =
    Core.Vm.run ~sink:(Uarch.Ildp.feed m) ~boundary:(fun () -> Uarch.Ildp.boundary m)
      ~fuel:1_000_000 vm
  in
  check Alcotest.bool "ran to completion" true (outcome = Core.Vm.Exit 0);
  let v = Uarch.Ildp.v_ipc m in
  check Alcotest.bool (Printf.sprintf "ILDP V-IPC plausible (%.2f)" v) true
    (v > 0.3 && v < 4.0)

let test_end_to_end_ooo_ipc () =
  let prog = Alpha.Assembler.assemble fig2_src in
  let st = Alpha.Interp.create prog in
  let m = Uarch.Ooo.create () in
  let outcome = Alpha.Interp.run_ev ~fuel:1_000_000 st ~sink:(Uarch.Ooo.feed m) in
  check Alcotest.bool "ran to completion" true (outcome = Alpha.Interp.Exit 0);
  let v = Uarch.Ooo.v_ipc m in
  check Alcotest.bool (Printf.sprintf "OoO V-IPC plausible (%.2f)" v) true
    (v > 0.5 && v <= 4.0)

let test_end_to_end_more_pes_not_slower () =
  let prog = Alpha.Assembler.assemble fig2_src in
  let run n_pe =
    let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
    let m =
      Uarch.Ildp.create ~params:{ Uarch.Ildp.default_params with n_pe } ()
    in
    ignore
      (Core.Vm.run ~sink:(Uarch.Ildp.feed m)
         ~boundary:(fun () -> Uarch.Ildp.boundary m)
         ~fuel:1_000_000 vm);
    Uarch.Ildp.v_ipc m
  in
  let p2 = run 2 and p8 = run 8 in
  check Alcotest.bool (Printf.sprintf "8 PE >= 2 PE (%.2f >= %.2f)" p8 p2) true
    (p8 >= p2 *. 0.98)

(* ---------- ILDP steering: packed-key minimum vs the scan ---------- *)

(* The scan the model steered with before packed keys: lowest last-issue
   cycle, then fewest steered instructions, then the lowest PE. *)
let scan_least_loaded (m : Uarch.Ildp.t) =
  let best = ref 0 in
  for pe = 1 to m.p.n_pe - 1 do
    if
      m.pe_last_issue.(pe) < m.pe_last_issue.(!best)
      || (m.pe_last_issue.(pe) = m.pe_last_issue.(!best)
          && m.pe_count.(pe) < m.pe_count.(!best))
    then best := pe
  done;
  !best

(* Random PE states within the model's invariants (no issue cycle past
   [last_commit], no count past [n]). Values come from pools of three so
   that ties are common. Regime 0 stays inside the packed keys' bounds;
   regimes 1 and 2 pass the [last_commit] and [n] guards, and up to 24
   PEs pass the 16-PE guard. *)
let gen_steer_state =
  let open QCheck.Gen in
  let* n_pe = int_range 1 24 in
  let* regime = int_bound 2 in
  let* last_commit =
    if regime = 1 then int_range (1 lsl 26) (1 lsl 40)
    else int_bound ((1 lsl 26) - 1)
  in
  let* n =
    if regime = 2 then int_range (1 lsl 31) (1 lsl 40)
    else int_bound ((1 lsl 31) - 1)
  in
  let* issue_pool = list_repeat 3 (int_bound last_commit) in
  let* count_pool = list_repeat 3 (int_bound n) in
  let* issues = array_repeat n_pe (oneofl issue_pool) in
  let* counts = array_repeat n_pe (oneofl count_pool) in
  return (last_commit, n, issues, counts)

let show_steer_state (last_commit, n, issues, counts) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "last_commit=%d n=%d issue=[%s] count=[%s]" last_commit n
    (ints issues) (ints counts)

let prop_least_loaded =
  QCheck.Test.make ~name:"ildp: least_loaded equals the scan" ~count:1000
    (QCheck.make ~print:show_steer_state gen_steer_state)
    (fun (last_commit, n, issues, counts) ->
      let n_pe = Array.length issues in
      let m =
        Uarch.Ildp.create ~params:{ Uarch.Ildp.default_params with n_pe } ()
      in
      Array.blit issues 0 m.pe_last_issue 0 n_pe;
      Array.blit counts 0 m.pe_count 0 n_pe;
      m.last_commit <- last_commit;
      m.n <- n;
      Uarch.Ildp.least_loaded m = scan_least_loaded m)

(* ---------- fast-forward tier: interval sampling ---------- *)

let sampled_fig2 ~interval =
  let prog = Alpha.Assembler.assemble fig2_src in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc prog in
  let m = Uarch.Ildp.create () in
  let ctl =
    Uarch.Fastfwd.create ~interval ~warmup:50 ~detail:100
      ~feed:(Uarch.Ildp.feed m)
      ~boundary:(fun () -> Uarch.Ildp.boundary m)
      ~cycles:(fun () -> m.Uarch.Ildp.last_commit)
      ()
  in
  let outcome =
    Core.Vm.run ~sink:(Uarch.Fastfwd.feed ctl)
      ~boundary:(fun () -> Uarch.Fastfwd.boundary ctl)
      ~fuel:1_000_000 vm
  in
  check Alcotest.bool "ran to completion" true (outcome = Core.Vm.Exit 0);
  (ctl, m)

let test_fastfwd_sampling_deterministic () =
  (* same program, same interval: the sampled results must be
     byte-identical once rendered (deterministic fields only) *)
  let json ctl =
    let module J = Obs.Json in
    J.to_string
      (J.Obj
         [ ("cycles", J.Int (Uarch.Fastfwd.cycles ctl));
           ("v_ipc", J.Float (Uarch.Fastfwd.v_ipc ctl));
           ("skip_ratio", J.Float (Uarch.Fastfwd.skip_ratio ctl)) ])
  in
  let a, _ = sampled_fig2 ~interval:500 in
  let b, _ = sampled_fig2 ~interval:500 in
  check Alcotest.bool "some instructions skipped" true
    (Uarch.Fastfwd.skip_ratio a > 0.0);
  check Alcotest.string "byte-identical sampled results" (json a) (json b)

let test_fastfwd_interval0_exact () =
  (* sampling off: the controller is a transparent wrapper and its cycle
     count equals the wrapped model's exactly *)
  let ctl, m = sampled_fig2 ~interval:0 in
  check Alcotest.int "interval=0 equals full fidelity" (Uarch.Ildp.cycles m)
    (Uarch.Fastfwd.cycles ctl);
  check (Alcotest.float 1e-9) "nothing skipped" 0.0
    (Uarch.Fastfwd.skip_ratio ctl)

let test_fastfwd_create_validates () =
  let mk ~interval ~warmup ~detail () =
    ignore
      (Uarch.Fastfwd.create ~interval ~warmup ~detail
         ~feed:(fun _ -> ())
         ~boundary:(fun () -> ())
         ~cycles:(fun () -> 0)
         ()
        : Uarch.Fastfwd.t)
  in
  Alcotest.check_raises "windows must leave a fast window"
    (Invalid_argument "Fastfwd.create: warmup + detail must leave a fast window")
    (mk ~interval:100 ~warmup:50 ~detail:50);
  Alcotest.check_raises "negative window"
    (Invalid_argument "Fastfwd.create: negative window")
    (mk ~interval:100 ~warmup:(-1) ~detail:10);
  (* interval 0 disables sampling and accepts any window sizes *)
  mk ~interval:0 ~warmup:50 ~detail:100 ()

(* ---------- golden timing results ---------- *)

(* Exact results of the timing models on three workloads at scale 1: gcc
   runs indirect jumps through its jump table, eon and vortex exercise
   dual-RAS returns that hit and miss. Simulation is deterministic, so a
   change to any emitted event field, to the way an engine builds events,
   or to a model decision moves at least one of these numbers. They are
   [cycles; insns; alpha; mispredicts; misfetches]. *)
let golden =
  [
    ("gcc original", [ 158653; 195722; 195722; 5721; 30 ]);
    ("gcc original no-RAS", [ 158653; 195722; 195722; 5722; 30 ]);
    ("gcc straight no-pred", [ 190092; 278838; 183313; 4874; 31 ]);
    ("gcc straight sw-pred", [ 189087; 291657; 183313; 5026; 34 ]);
    ("gcc straight sw-pred+RAS", [ 189087; 291657; 183313; 5026; 34 ]);
    ("gcc acc basic fig8", [ 258468; 370999; 183313; 5252; 32 ]);
    ("gcc acc modified fig8", [ 215509; 276705; 183313; 5073; 33 ]);
    ("gcc acc modified 4PE/2c/8K", [ 299703; 276705; 183313; 5073; 33 ]);
    ("eon original", [ 111154; 350795; 350795; 678; 20 ]);
    ("eon original no-RAS", [ 171871; 350795; 350795; 9096; 20 ]);
    ("eon straight no-pred", [ 234636; 495567; 335532; 8893; 23 ]);
    ("eon straight sw-pred", [ 119142; 388966; 335532; 876; 24 ]);
    ("eon straight sw-pred+RAS", [ 107451; 348615; 335532; 953; 12 ]);
    ("eon acc basic fig8", [ 201119; 706127; 335532; 949; 12 ]);
    ("eon acc modified fig8", [ 165353; 571434; 335532; 965; 12 ]);
    ("eon acc modified 4PE/2c/8K", [ 329655; 571434; 335532; 965; 12 ]);
    ("vortex original", [ 98010; 224096; 224096; 1673; 29 ]);
    ("vortex original no-RAS", [ 105676; 224096; 224096; 2811; 29 ]);
    ("vortex straight no-pred", [ 142559; 266400; 206255; 4901; 26 ]);
    ("vortex straight sw-pred", [ 97227; 218545; 206255; 1802; 29 ]);
    ("vortex straight sw-pred+RAS", [ 97877; 210067; 206255; 2032; 18 ]);
    ("vortex acc basic fig8", [ 151383; 359726; 206255; 2053; 18 ]);
    ("vortex acc modified fig8", [ 121984; 280958; 206255; 2050; 16 ]);
    ("vortex acc modified 4PE/2c/8K", [ 192790; 280958; 206255; 2050; 16 ]);
    ("vortex acc modified fig8 flushing", [ 106200; 185542; 128010; 2495; 45 ]);
  ]

(* A machine needs a processing element: [Ildp.create] rejects [n_pe < 1]
   by name instead of failing later inside its per-PE arrays. *)
let test_ildp_create_validates () =
  let mk n_pe () =
    ignore
      (Uarch.Ildp.create ~params:{ Uarch.Ildp.default_params with n_pe } ()
        : Uarch.Ildp.t)
  in
  Alcotest.check_raises "no processing element"
    (Invalid_argument "Ildp.create: n_pe must be at least 1, got 0")
    (mk 0);
  mk 1 ()

let fig8_ildp = Harness.Experiments.ildp_base 8 0 `Big 4
let small_ildp = Harness.Experiments.ildp_base 4 2 `Small 4

(* A translation-cache capacity that makes vortex flush several times,
   so its run also covers the engines' per-slot event templates
   restarting on each new cache generation. *)
let flush_slots = 600

let golden_row (t : Harness.Runner.timing) =
  [ t.cycles; t.insns; t.alpha; t.mispredicts; t.misfetches ]

let flushing_run name =
  let w = Option.get (Workloads.find name) in
  let cfg = { Core.Config.default with tcache_max_slots = flush_slots } in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc (Workloads.program ~scale:1 w) in
  let m = Uarch.Ildp.create ~params:fig8_ildp () in
  let outcome =
    Core.Vm.run ~sink:(Uarch.Ildp.feed m)
      ~boundary:(fun () -> Uarch.Ildp.boundary m)
      ~fuel:Harness.Runner.fuel vm
  in
  check Alcotest.bool "flushing run completes" true
    (match outcome with Core.Vm.Exit _ -> true | _ -> false);
  check Alcotest.bool "flushing run flushes" true (vm.segs.capacity_flushes > 1);
  golden_row (Harness.Runner.timing_of_ildp m)

let golden_runs () =
  let module R = Harness.Runner in
  let module C = Core.Config in
  List.concat_map
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let acc ?(isa = C.Modified) ildp =
        golden_row (Option.get (R.acc ~isa ~ildp w).a_t)
      in
      [
        (name ^ " original", golden_row (R.original w));
        (name ^ " original no-RAS", golden_row (R.original ~use_ras:false w));
        (name ^ " straight no-pred",
          golden_row (R.straight ~chaining:C.No_pred w).s_t);
        (name ^ " straight sw-pred",
          golden_row (R.straight ~chaining:C.Sw_pred_no_ras w).s_t);
        (name ^ " straight sw-pred+RAS",
          golden_row (R.straight ~chaining:C.Sw_pred_ras w).s_t);
        (name ^ " acc basic fig8", acc ~isa:C.Basic fig8_ildp);
        (name ^ " acc modified fig8", acc fig8_ildp);
        (name ^ " acc modified 4PE/2c/8K", acc small_ildp);
      ])
    [ "gcc"; "eon"; "vortex" ]
  @ [ ("vortex acc modified fig8 flushing", flushing_run "vortex") ]

let test_timing_golden () =
  let actual = golden_runs () in
  check Alcotest.(list string) "golden labels" (List.map fst golden)
    (List.map fst actual);
  List.iter2
    (fun (label, want) (_, got) -> check Alcotest.(list int) label want got)
    golden actual

let suite =
  [
    ("slot booking bandwidth", `Quick, test_slots_bandwidth);
    ("ooo: independent ops reach width", `Quick, test_ooo_ideal_ipc);
    ("ooo: dependence chain serialises", `Quick, test_ooo_dependence_chain);
    ("ooo: multiply latency", `Quick, test_ooo_mul_latency);
    ("ooo: mispredicts cost cycles", `Quick, test_ooo_mispredict_penalty);
    ("ooo: d-cache misses cost cycles", `Quick, test_ooo_dcache_miss_hurts);
    ("ildp: strands spread over PEs", `Quick, test_ildp_parallel_strands);
    ("ildp: communication latency costs", `Quick, test_ildp_comm_latency_costs);
    ("ildp: boundary drains pipeline", `Quick, test_ildp_boundary_drains);
    QCheck_alcotest.to_alcotest prop_least_loaded;
    ("pred: random cond branches mispredict", `Quick, test_pred_counts_cond_mispredicts);
    ("pred: nested RAS pairs", `Quick, test_pred_ras_nested);
    ("pred: outcome per prediction kind", `Quick, test_pred_outcome_table);
    ("end-to-end ILDP V-IPC", `Quick, test_end_to_end_ildp_ipc);
    ("end-to-end OoO V-IPC", `Quick, test_end_to_end_ooo_ipc);
    ("end-to-end more PEs helps", `Quick, test_end_to_end_more_pes_not_slower);
    ("fastfwd: sampling deterministic", `Quick,
      test_fastfwd_sampling_deterministic);
    ("fastfwd: interval=0 is exact", `Quick, test_fastfwd_interval0_exact);
    ("fastfwd: window validation", `Quick, test_fastfwd_create_validates);
    ("ildp: create validates n_pe", `Quick, test_ildp_create_validates);
    ("golden timing results", `Quick, test_timing_golden);
  ]
