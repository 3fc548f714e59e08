(* Telemetry registry tests.

   Three properties carry the subsystem's contract:

   - the registry itself (sums, high-water marks, histogram bucketing,
     spans, cross-domain merge-on-collect) behaves as specified;
   - disabled telemetry is observation-free: a run with the master switch
     off produces byte-identical architected state and statistics to a
     run with it on, and leaves every counter at zero;
   - enabled telemetry is *truthful*: after [Vm.publish_obs] the
     collected counters equal the VM's hand-rolled per-run stat structs
     — the very numbers the lockstep oracle validates exactly — across
     every backend/ISA/chaining mode, and Pool-sharded runs merge to the
     same totals as a serial sweep. *)

open Oracle

let check = Alcotest.check

let get snap name = Option.value ~default:0 (Obs.find snap name)

(* Every registry test owns the global state for its duration. *)
let fresh f () =
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) f

(* ---------- registry unit tests ---------- *)

let c_a = Obs.counter "test.a"
let c_b = Obs.counter "test.b"
let g = Obs.max_gauge "test.hw"
let h = Obs.histogram "test.hist" ~bounds:[| 2; 4; 8 |]
let sp = Obs.span "test.span"

let test_counters () =
  Obs.set_enabled true;
  Obs.bump c_a 3;
  Obs.bump c_a 4;
  Obs.bump c_b 1;
  check Alcotest.bool "same name, same handle" true (Obs.counter "test.a" = c_a);
  Obs.bump (Obs.counter "test.a") 10;
  let s = Obs.collect () in
  check Alcotest.int "sum" 17 (get s "test.a");
  check Alcotest.int "other counter" 1 (get s "test.b");
  Obs.reset ();
  check Alcotest.int "reset" 0 (get (Obs.collect ()) "test.a")

let test_max_gauge () =
  Obs.set_enabled true;
  Obs.set_max g 5;
  Obs.set_max g 12;
  Obs.set_max g 7;
  check Alcotest.int "high water" 12 (get (Obs.collect ()) "test.hw")

let test_histogram () =
  Obs.set_enabled true;
  List.iter (Obs.observe h) [ 1; 2; 3; 4; 9; 100 ];
  let s = Obs.collect () in
  let _, bounds, counts =
    List.find (fun (n, _, _) -> n = "test.hist") s.Obs.histograms
  in
  check (Alcotest.array Alcotest.int) "bounds" [| 2; 4; 8 |] bounds;
  (* <=2: {1,2}; <=4: {3,4}; <=8: {}; overflow: {9,100} *)
  check (Alcotest.array Alcotest.int) "buckets" [| 2; 2; 0; 2 |] counts

(* out-of-range observations land in the overflow bucket AND bump the
   companion ".saturated" counter — never dropped silently (the fixed
   satellite bug: values past the top bound used to vanish) *)
let test_histogram_saturation () =
  Obs.set_enabled true;
  List.iter (Obs.observe h) [ 1; 8; 9; 100; 1_000_000 ];
  let s = Obs.collect () in
  let _, _, counts =
    List.find (fun (n, _, _) -> n = "test.hist") s.Obs.histograms
  in
  check Alcotest.int "overflow bucket counts out-of-range" 3
    counts.(Array.length counts - 1);
  check Alcotest.int "saturation counter matches" 3
    (get s "test.hist.saturated");
  (* in-range observations never touch the saturation counter *)
  Obs.reset ();
  List.iter (Obs.observe h) [ 1; 2; 8 ];
  check Alcotest.int "in-range leaves it at zero" 0
    (get (Obs.collect ()) "test.hist.saturated")

let test_spans () =
  Obs.set_enabled true;
  let r = Obs.with_span sp (fun () -> 40 + 2) in
  check Alcotest.int "span returns f's value" 42 r;
  (try Obs.with_span sp (fun () -> failwith "boom") with Failure _ -> ());
  let s = Obs.collect () in
  let _, count, secs = List.find (fun (n, _, _) -> n = "test.span") s.Obs.spans in
  check Alcotest.int "count (incl. raising call)" 2 count;
  check Alcotest.bool "seconds non-negative" true (secs >= 0.0)

let test_disabled_is_noop () =
  Obs.set_enabled false;
  Obs.bump c_a 100;
  Obs.set_max g 100;
  Obs.observe h 1;
  check Alcotest.int "with_span is f ()" 7 (Obs.with_span sp (fun () -> 7));
  let s = Obs.collect () in
  check Alcotest.int "counter untouched" 0 (get s "test.a");
  check Alcotest.int "gauge untouched" 0 (get s "test.hw");
  let _, count, _ = List.find (fun (n, _, _) -> n = "test.span") s.Obs.spans in
  check Alcotest.int "span untouched" 0 count

let test_domain_merge () =
  Obs.set_enabled true;
  Obs.bump c_a 1;
  Obs.set_max g 3;
  let worker seed =
    Domain.spawn (fun () ->
        for _ = 1 to 1000 do
          Obs.bump c_a 1
        done;
        Obs.set_max g seed)
  in
  let ds = List.map worker [ 10; 4 ] in
  List.iter Domain.join ds;
  let s = Obs.collect () in
  check Alcotest.int "sums add across slabs" 2001 (get s "test.a");
  check Alcotest.int "maxes max across slabs" 10 (get s "test.hw")

(* ---------- VM runs: off = observation-free, on = truthful ---------- *)

(* Same shape as Test_exec_closure's probe: everything observable about a
   sink-less run, rendered to one comparable string. *)
let run_vm ~(mode : Lockstep.mode) image =
  let cfg =
    {
      Core.Config.default with
      isa = mode.isa;
      chaining = mode.chaining;
      fuse_mem = mode.fuse_mem;
      hot_threshold = 10;
    }
  in
  let vm = Core.Vm.create ~cfg ~kind:mode.kind image in
  let outcome =
    match Core.Vm.run ~fuel:10_000_000 vm with
    | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
    | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
    | Core.Vm.Out_of_fuel -> "fuel"
  in
  Core.Vm.publish_obs vm;
  (vm, outcome)

let show_run (vm, outcome) =
  let stats =
    let st = Core.Vm.engine_stats vm in
    Printf.sprintf "i_exec=%d by_class=[%s] alpha=%d enters=%d dras=%d/%d"
      st.i_exec
      (String.concat ";" (Array.to_list (Array.map string_of_int st.by_class)))
      st.alpha_retired st.frag_enters st.ret_dras_hits st.ret_dras_misses
  in
  Printf.sprintf
    "outcome=%s output=%S regs=%#Lx interp=%d superblocks=%d \
     segs=%d/%d/%d/%d/%d flushes=%d %s"
    outcome (Core.Vm.output vm) (Core.Vm.reg_checksum vm) vm.interp_insns
    vm.superblocks vm.segs.branch_exits vm.segs.pal_exits
    vm.segs.dispatch_misses vm.segs.trap_recoveries vm.segs.fuel_stops
    vm.segs.flushes stats

let test_off_is_observation_free () =
  let image = Gen.assemble (Gen.generate ~seed:3) in
  List.iter
    (fun (mode : Lockstep.mode) ->
      let name = Lockstep.mode_name mode in
      Obs.set_enabled false;
      let off = show_run (run_vm ~mode image) in
      check Alcotest.int
        (name ^ ": nothing recorded while off")
        0
        (get (Obs.collect ()) "vm.runs");
      Obs.set_enabled true;
      let on = show_run (run_vm ~mode image) in
      Obs.set_enabled false;
      Obs.reset ();
      check Alcotest.string (name ^ ": off/on runs identical") off on)
    Lockstep.all_modes

(* After one published run, the registry must agree exactly with the
   stat structs the oracle validates. *)
let test_counters_match_stats () =
  let image = Gen.assemble (Gen.generate ~seed:5) in
  List.iter
    (fun (mode : Lockstep.mode) ->
      Obs.reset ();
      Obs.set_enabled true;
      let vm, _ = run_vm ~mode image in
      Obs.set_enabled false;
      let s = Obs.collect () in
      let n = Lockstep.mode_name mode in
      let chki what want got = check Alcotest.int (n ^ ": " ^ what) want got in
      chki "vm.runs" 1 (get s "vm.runs");
      chki "vm.interp_insns" vm.interp_insns (get s "vm.interp_insns");
      chki "vm.superblocks" vm.superblocks (get s "vm.superblocks");
      chki "vm.seg.branch_exits" vm.segs.branch_exits
        (get s "vm.seg.branch_exits");
      chki "vm.seg.pal_exits" vm.segs.pal_exits (get s "vm.seg.pal_exits");
      chki "vm.seg.dispatch_misses" vm.segs.dispatch_misses
        (get s "vm.seg.dispatch_misses");
      chki "vm.seg.trap_recoveries" vm.segs.trap_recoveries
        (get s "vm.seg.trap_recoveries");
      chki "vm.flushes" vm.segs.flushes (get s "vm.flushes");
      let st = Core.Vm.engine_stats vm in
      chki "engine.i_exec" st.i_exec (get s "engine.i_exec");
      chki "engine.alpha_retired" st.alpha_retired
        (get s "engine.alpha_retired");
      chki "engine.frag_enters" st.frag_enters (get s "engine.frag_enters");
      chki "engine.ret_dras_hits" st.ret_dras_hits
        (get s "engine.ret_dras_hits");
      chki "engine.class.copy" st.by_class.(1) (get s "engine.class.copy");
      (* cache/translator counters are live (not published): sanity-link
         them to the run rather than to a struct *)
      if vm.superblocks > 0 then begin
        check Alcotest.bool (n ^ ": tcache.installs > 0") true
          (get s "tcache.installs" > 0);
        check Alcotest.bool (n ^ ": translate superblocks recorded") true
          (get s "translate.acc.superblocks"
           + get s "translate.straight.superblocks"
           > 0)
      end)
    Lockstep.all_modes

(* Pool-sharded runs must merge to the same counters as the same runs
   executed serially: slabs survive worker shutdown and sums/maxes are
   partition-independent. *)
let test_pool_merge_equals_serial () =
  let runs =
    List.concat_map
      (fun seed ->
        let image = Gen.assemble (Gen.generate ~seed) in
        List.map (fun mode -> (image, mode)) Lockstep.all_modes)
      [ 1; 2 ]
  in
  let totals ~jobs =
    Obs.reset ();
    Obs.set_enabled true;
    (if jobs = 1 then List.iter (fun (i, m) -> ignore (run_vm ~mode:m i)) runs
     else
       Harness.Pool.with_pool ~jobs (fun pool ->
           runs
           |> List.map (fun (i, m) ->
                  Harness.Pool.submit pool (fun () -> ignore (run_vm ~mode:m i)))
           |> List.iter Harness.Pool.await));
    Obs.set_enabled false;
    let s = Obs.collect () in
    ( s.Obs.counters,
      List.map (fun (n, _, counts) -> (n, Array.to_list counts)) s.Obs.histograms,
      List.map (fun (n, count, _) -> (n, count)) s.Obs.spans )
  in
  let c1, h1, sp1 = totals ~jobs:1 in
  let c3, h3, sp3 = totals ~jobs:3 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counters" c1 c3;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.int)))
    "histograms" h1 h3;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "span counts" sp1 sp3

(* ---------- JSON + envelope ---------- *)

let test_json_roundtrip () =
  let module J = Obs.Json in
  let doc =
    J.Obj
      [ ("s", J.String "a\"b\\c\ndé");
        ("i", J.Int (-42));
        ("f", J.Float 2.16);
        ("l", J.List [ J.Null; J.Bool true; J.Int 0 ]);
        ("empty", J.Obj []) ]
  in
  match J.parse_string (J.to_string doc) with
  | Error e -> Alcotest.fail e
  | Ok doc' ->
    check Alcotest.string "roundtrip" (J.to_string doc) (J.to_string doc');
    check Alcotest.int "member/to_int" (-42)
      (Option.get (Option.bind (J.member "i" doc') J.to_int))

let test_json_rejects_garbage () =
  let module J = Obs.Json in
  List.iter
    (fun s ->
      match J.parse_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":1} x"; "nul"; "\"\\q\"" ]

(* Parse errors must carry a byte position so a broken multi-megabyte
   baseline or snapshot-metadata file is debuggable. *)
let test_json_errors_carry_position () =
  let module J = Obs.Json in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (input, expected) ->
      match J.parse_string input with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" input)
      | Error e ->
        check Alcotest.bool
          (Printf.sprintf "%S: %S mentions %S" input e expected)
          true (contains e expected))
    [ ("{\"a\":}", "parse error at byte 5");
      ("[1, 2, x]", "parse error at byte 7");
      ("{\"a\":1} x", "trailing garbage at byte 8") ]

(* Deep nesting exercises the recursive printer/parser pair well past any
   realistic document depth without blowing the stack. *)
let test_json_deep_nesting () =
  let module J = Obs.Json in
  let depth = 2_000 in
  let rec build n = if n = 0 then J.Int 7 else J.Obj [ ("k", J.List [ build (n - 1) ]) ] in
  let doc = build depth in
  match J.parse_string (J.to_string doc) with
  | Error e -> Alcotest.fail e
  | Ok doc' ->
    let rec probe n d =
      if n = 0 then J.to_int d
      else
        Option.bind (J.member "k" d) (fun l ->
            Option.bind (J.to_list l) (function
              | [ inner ] -> probe (n - 1) inner
              | _ -> None))
    in
    check (Alcotest.option Alcotest.int) "leaf survives" (Some 7)
      (probe depth doc')

let test_envelope () =
  Obs.set_enabled true;
  Obs.bump c_a 9;
  let path = Filename.temp_file "obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Envelope.write_telemetry path ~jobs:2 (Obs.collect ());
      match Obs.Json.parse_file path with
      | Error e -> Alcotest.fail e
      | Ok doc ->
        let module J = Obs.Json in
        check
          (Alcotest.option Alcotest.string)
          "schema"
          (Some Obs.Envelope.telemetry_schema)
          (Obs.Envelope.schema_of doc);
        check (Alcotest.option Alcotest.int) "envelope version" (Some 1)
          (Option.bind (J.member "envelope" doc) J.to_int);
        check (Alcotest.option Alcotest.int) "jobs" (Some 2)
          (Option.bind (J.member "jobs" doc) J.to_int);
        List.iter
          (fun k ->
            check Alcotest.bool (k ^ " present") true
              (J.member k doc <> None))
          [ "git_rev"; "date"; "host"; "counters"; "spans"; "histograms" ];
        check (Alcotest.option Alcotest.int) "counter exported" (Some 9)
          (Option.bind
             (Option.bind (J.member "counters" doc) (J.member "test.a"))
             J.to_int))

let suite =
  [
    Alcotest.test_case "counters sum and reset" `Quick (fresh test_counters);
    Alcotest.test_case "max gauge keeps high water" `Quick (fresh test_max_gauge);
    Alcotest.test_case "histogram bucketing" `Quick (fresh test_histogram);
    Alcotest.test_case "histogram saturation counted" `Quick
      (fresh test_histogram_saturation);
    Alcotest.test_case "spans time and count" `Quick (fresh test_spans);
    Alcotest.test_case "disabled is a no-op" `Quick (fresh test_disabled_is_noop);
    Alcotest.test_case "slabs merge across domains" `Quick (fresh test_domain_merge);
    Alcotest.test_case "telemetry off is observation-free" `Quick
      (fresh test_off_is_observation_free);
    Alcotest.test_case "counters match VM stat structs (all modes)" `Slow
      (fresh test_counters_match_stats);
    Alcotest.test_case "pool merge equals serial totals" `Slow
      (fresh test_pool_merge_equals_serial);
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed input" `Quick
      test_json_rejects_garbage;
    Alcotest.test_case "json errors carry byte positions" `Quick
      test_json_errors_carry_position;
    Alcotest.test_case "json deep nesting roundtrip" `Quick
      test_json_deep_nesting;
    Alcotest.test_case "envelope export" `Quick (fresh test_envelope);
  ]
