(* Workload integration tests: all fourteen workloads (twelve SPEC
   analogues and two NN kernels) compile, run, and compute identical
   results under the plain interpreter, the DBT VM in representative
   modes, and the straightening backend; plus shape checks on their
   dynamic characteristics (each workload must actually exercise what it
   claims to) and the NN kernels' exact checksums. *)

let check = Alcotest.check

let reference = Hashtbl.create 16

let ref_of w =
  match Hashtbl.find_opt reference (w : Workloads.t).name with
  | Some r -> r
  | None ->
    let r = Workloads.reference w in
    Hashtbl.replace reference w.name r;
    r

let test_all_compile_and_run () =
  List.iter
    (fun (w : Workloads.t) ->
      let code, out, icount = ref_of w in
      check Alcotest.int (w.name ^ " exits 0") 0 code;
      check Alcotest.bool (w.name ^ " produces output") true (String.length out > 0);
      check Alcotest.bool
        (Printf.sprintf "%s is a real run (%d insns)" w.name icount)
        true
        (icount > 100_000 && icount < 3_000_000))
    Workloads.all

let vm_matches w ~kind ~isa ~chaining =
  let code, out, _ = ref_of w in
  let cfg = { Core.Config.default with isa; chaining } in
  let vm = Core.Vm.create ~cfg ~kind (Workloads.program w) in
  (match Core.Vm.run ~fuel:200_000_000 vm with
  | Core.Vm.Exit c ->
    check Alcotest.int ((w : Workloads.t).name ^ " exit") code c
  | Fault tr ->
    Alcotest.failf "%s: %a" w.name Alpha.Interp.pp_trap tr
  | Out_of_fuel -> Alcotest.failf "%s: out of fuel" w.name);
  check Alcotest.string (w.name ^ " output") out (Core.Vm.output vm);
  vm

let test_dbt_equivalence_modified () =
  List.iter
    (fun w ->
      let vm =
        vm_matches w ~kind:Core.Vm.Acc ~isa:Core.Config.Modified
          ~chaining:Core.Config.Sw_pred_ras
      in
      let ex = Option.get (Core.Vm.acc_exec vm) in
      (* the hot threshold must have been crossed: most work translated *)
      let frac =
        float_of_int ex.stats.alpha_retired
        /. float_of_int (ex.stats.alpha_retired + vm.interp_insns)
      in
      check Alcotest.bool
        (Printf.sprintf "%s mostly translated (%.2f)" (w : Workloads.t).name frac)
        true (frac > 0.80))
    Workloads.all

let test_dbt_equivalence_basic () =
  List.iter
    (fun w ->
      ignore
        (vm_matches w ~kind:Core.Vm.Acc ~isa:Core.Config.Basic
           ~chaining:Core.Config.No_pred))
    Workloads.all

let test_straight_equivalence () =
  List.iter
    (fun w ->
      ignore
        (vm_matches w ~kind:Core.Vm.Straight_only ~isa:Core.Config.Modified
           ~chaining:Core.Config.Sw_pred_ras))
    Workloads.all

(* ---------- per-workload dynamic-signature checks ---------- *)

let count_events w =
  let prog = Workloads.program w in
  let st = Alpha.Interp.create prog in
  let loads = ref 0 and stores = ref 0 and branches = ref 0 in
  let calls = ref 0 and rets = ref 0 and ind_jumps = ref 0 in
  let muls = ref 0 and cmovs = ref 0 and total = ref 0 in
  let sink (e : Machine.Ev.t) =
    incr total;
    match e.cls with
    | Machine.Ev.Load -> incr loads
    | Store -> incr stores
    | Cond_br -> incr branches
    | Call -> incr calls
    | Ret -> incr rets
    | Jump -> if e.pred = Machine.Ev.P_indirect then incr ind_jumps
    | Mul -> incr muls
    | Alu -> ()
  in
  ignore (Alpha.Interp.run_ev ~fuel:200_000_000 st ~sink);
  ignore cmovs;
  let pct x = 100.0 *. float_of_int !x /. float_of_int !total in
  (pct loads, pct stores, pct branches, pct calls, pct rets, pct ind_jumps, pct muls)

let find name = Option.get (Workloads.find name)

let test_signature_perlbmk_indirect () =
  (* the interpreter-dispatch workload must be indirect-jump heavy *)
  let _, _, _, _, _, ind, _ = count_events (find "perlbmk") in
  check Alcotest.bool (Printf.sprintf "perlbmk indirect %.2f%%" ind) true (ind > 1.0)

let test_signature_parser_calls () =
  let _, _, _, calls, rets, _, _ = count_events (find "parser") in
  check Alcotest.bool (Printf.sprintf "parser calls %.2f%%" calls) true (calls > 1.5);
  check Alcotest.bool "balanced returns" true (rets > 1.5)

let test_signature_mcf_loads () =
  let loads, _, _, _, _, _, _ = count_events (find "mcf") in
  check Alcotest.bool (Printf.sprintf "mcf load-heavy %.1f%%" loads) true
    (loads > 20.0)

let test_signature_crafty_logical () =
  let _, _, _, _, _, _, muls = count_events (find "crafty") in
  (* popcount uses multiplies; most of the rest is logical ALU *)
  check Alcotest.bool (Printf.sprintf "crafty muls %.2f%%" muls) true (muls > 0.5)

let test_signature_gcc_branchy () =
  let _, _, branches, _, _, _, _ = count_events (find "gcc") in
  check Alcotest.bool (Printf.sprintf "gcc branchy %.1f%%" branches) true
    (branches > 6.0)

let test_signature_gzip_bytes () =
  let loads, stores, _, _, _, _, _ = count_events (find "gzip") in
  check Alcotest.bool
    (Printf.sprintf "gzip touches memory (%.1f%% loads, %.1f%% stores)" loads stores)
    true
    (loads +. stores > 10.0)

(* The NN kernels print per-layer checksums that fold every requantized
   activation, so one mistranslated multiply or shift changes them. The
   interpreter's scale-1 values are pinned here; the DBT-equivalence cases
   above require every VM mode to print the same output. *)
let test_nn_checksums () =
  List.iter
    (fun (name, want) ->
      let _, out, _ = ref_of (find name) in
      check
        Alcotest.(list int)
        (name ^ " checksums") want
        (Harness.Nn_bench.parse_checksums out))
    [ ("nn_mlp", [ 9882548; 5789793; 15120052; 10604111 ]);
      ("nn_tiled", [ 3680989; 15870848; 5110624 ]) ]

let test_scale_parameter () =
  let w = find "gzip" in
  let _, _, i1 = Workloads.reference ~scale:1 w in
  let _, _, i2 = Workloads.reference ~scale:2 w in
  check Alcotest.bool (Printf.sprintf "scale grows work (%d -> %d)" i1 i2) true
    (i2 > i1 + (i1 / 3))

(* The workload set, in registry order: every table and figure runs over
   it, so a dropped or renamed workload changes the reproduced paper. *)
let test_registry_consistency () =
  check
    Alcotest.(list string)
    "workload names"
    [ "gzip"; "vpr"; "gcc"; "mcf"; "crafty"; "parser"; "eon"; "perlbmk";
      "gap"; "vortex"; "bzip2"; "twolf"; "nn_mlp"; "nn_tiled" ]
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all);
  List.iter
    (fun (w : Workloads.t) ->
      check Alcotest.bool (w.name ^ " has description") true
        (String.length w.description > 10))
    Workloads.all

let suite =
  [
    ("all fourteen compile and run", `Slow, test_all_compile_and_run);
    ("DBT equivalence (modified/dual-RAS)", `Slow, test_dbt_equivalence_modified);
    ("DBT equivalence (basic/no_pred)", `Slow, test_dbt_equivalence_basic);
    ("straightening equivalence", `Slow, test_straight_equivalence);
    ("perlbmk is indirect-jump heavy", `Slow, test_signature_perlbmk_indirect);
    ("parser is call/return heavy", `Slow, test_signature_parser_calls);
    ("mcf is load heavy", `Slow, test_signature_mcf_loads);
    ("crafty uses multiplies", `Slow, test_signature_crafty_logical);
    ("gcc is branchy", `Slow, test_signature_gcc_branchy);
    ("gzip touches memory", `Slow, test_signature_gzip_bytes);
    ("NN kernels print the pinned checksums", `Quick, test_nn_checksums);
    ("scale parameter grows work", `Slow, test_scale_parameter);
    ("registry consistency", `Quick, test_registry_consistency);
  ]
