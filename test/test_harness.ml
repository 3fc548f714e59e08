(* Harness smoke tests: experiment drivers run end-to-end, print a row per
   workload, and produce finite, sane numbers; the runner memoises. *)

let check = Alcotest.check

let render f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt ~scale:1;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let all_names () = List.map (fun (w : Workloads.t) -> w.name) Workloads.all

(* The experiment set, in render order: a dropped or renamed experiment
   silently shrinks the reproduced paper. *)
let test_registry () =
  check
    Alcotest.(list string)
    "experiment ids"
    [ "table1"; "table2"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "sec42"; "abl_fuse"; "abl_sbsize"; "abl_threshold"; "abl_linking" ]
    (List.map (fun (e : Harness.Experiments.exp) -> e.id)
       Harness.Experiments.all);
  List.iter
    (fun (e : Harness.Experiments.exp) ->
      check Alcotest.bool (e.id ^ " described") true (String.length e.desc > 5);
      check Alcotest.bool (e.id ^ " findable") true
        (Harness.Experiments.find e.id <> None))
    Harness.Experiments.all;
  check Alcotest.bool "unknown id" true (Harness.Experiments.find "nope" = None)

(* every experiment except table1 (pure configuration print) declares a
   non-empty run plan, and plans dedup to at most 12 workloads x configs *)
let test_plans_declared () =
  List.iter
    (fun (e : Harness.Experiments.exp) ->
      let n = List.length (e.plan ~scale:1) in
      if e.id = "table1" then check Alcotest.int "table1 plan empty" 0 n
      else check Alcotest.bool (e.id ^ " has a plan") true (n > 0))
    Harness.Experiments.all

let test_table1_prints_parameters () =
  let out = render Harness.Experiments.table1 in
  List.iter
    (fun needle ->
      check Alcotest.bool ("mentions " ^ needle) true (contains out needle))
    [ "gshare"; "BTB"; "dual-address RAS"; "128"; "FIFO"; "4/6/8 PEs" ]

let test_fig7_rows_and_sanity () =
  let out = render Harness.Experiments.fig7 in
  List.iter
    (fun n -> check Alcotest.bool ("row for " ^ n) true (contains out n))
    (all_names ());
  check Alcotest.bool "no NaNs" false (contains out "nan");
  (* the headline claims are printed *)
  check Alcotest.bool "global summary" true (contains out "global outputs")

let test_sec42_overhead_sane () =
  let out = render Harness.Experiments.sec42 in
  List.iter
    (fun n -> check Alcotest.bool ("row for " ^ n) true (contains out n))
    (all_names ());
  check Alcotest.bool "no NaNs" false (contains out "nan")

let test_runner_results_sane () =
  let w = Option.get (Workloads.find "gzip") in
  let r = Harness.Runner.acc w in
  check Alcotest.bool "work translated" true (r.a_alpha > 100_000);
  check Alcotest.bool "expansion in band" true
    (let e = float_of_int r.a_i_exec /. float_of_int r.a_alpha in
     e > 1.0 && e < 2.5);
  check Alcotest.bool "categories sum to 1" true
    (abs_float (Array.fold_left ( +. ) 0.0 r.a_cat_dyn -. 1.0) < 1e-6);
  check Alcotest.bool "dbt work order of magnitude" true
    (r.a_dbt_work > 100.0 && r.a_dbt_work < 5000.0)

let test_runner_memoises () =
  let w = Option.get (Workloads.find "gzip") in
  let a = Harness.Runner.acc w in
  let b = Harness.Runner.acc w in
  check Alcotest.bool "same physical result" true (a == b);
  let c = Harness.Runner.acc ~n_accs:8 w in
  check Alcotest.bool "different key, different run" true (c != a)

let test_original_vs_ildp_timing () =
  let w = Option.get (Workloads.find "gzip") in
  let o = Harness.Runner.original w in
  check Alcotest.bool "original IPC plausible" true (o.v_ipc > 0.5 && o.v_ipc <= 4.0);
  let params = { Uarch.Ildp.default_params with n_pe = 8 } in
  let i = Harness.Runner.acc ~ildp:params w in
  let it = Option.get i.a_t in
  check Alcotest.bool "ILDP V-IPC plausible" true (it.v_ipc > 0.3 && it.v_ipc <= 4.0);
  (* the ILDP machine executes MORE instructions for the same V-ISA work *)
  check Alcotest.bool "native IPC >= V-IPC" true (it.ipc >= it.v_ipc)

let test_geomean_mean () =
  check (Alcotest.float 1e-9) "geomean" 2.0
    (Harness.Runner.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "mean" 2.0 (Harness.Runner.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "empty geomean" 0.0 (Harness.Runner.geomean [])

let suite =
  [
    ("experiment registry", `Quick, test_registry);
    ("experiment plans declared", `Quick, test_plans_declared);
    ("table1 prints the configuration", `Quick, test_table1_prints_parameters);
    ("fig7 rows and sanity", `Slow, test_fig7_rows_and_sanity);
    ("sec42 rows and sanity", `Slow, test_sec42_overhead_sane);
    ("runner: sane gzip statistics", `Slow, test_runner_results_sane);
    ("runner: memoisation", `Slow, test_runner_memoises);
    ("runner: timing plausibility", `Slow, test_original_vs_ildp_timing);
    ("geomean and mean", `Quick, test_geomean_mean);
  ]
