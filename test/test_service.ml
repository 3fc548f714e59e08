(* Translation service: registry single-flight semantics, warm-start
   correctness through the daemon, per-tenant quota enforcement with
   exact fuel accounting, admission control, and drain-less shutdown. *)

module Registry = Service.Registry
module Daemon = Service.Daemon

let check = Alcotest.check

let gzip () = List.hd Workloads.all
let prog () = Workloads.program ~scale:1 (gzip ())

(* A real snapshot + fingerprint for registry tests. *)
let make_snapshot () =
  let p = prog () in
  let vm = Core.Vm.create ~kind:Core.Vm.Acc p in
  ignore (Core.Vm.run ~fuel:200_000 vm : Core.Vm.outcome);
  Core.Vm.save_snapshot vm

(* ---------- Registry ---------- *)

let test_registry_single_flight () =
  let snap = make_snapshot () in
  let fp = snap.Persist.Snapshot.fingerprint in
  let reg = Registry.create () in
  (* first acquire owns the build *)
  (match Registry.acquire reg fp with
  | Registry.Build -> ()
  | Registry.Warm _ -> Alcotest.fail "first acquire must build");
  (* concurrent acquires block on the builder *)
  let waiters =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Registry.acquire reg fp))
  in
  Unix.sleepf 0.05;
  Registry.publish reg snap;
  List.iter
    (fun d ->
      match Domain.join d with
      | Registry.Warm s ->
        check Alcotest.bool "waiters share the published snapshot" true
          (s == snap)
      | Registry.Build -> Alcotest.fail "duplicate build granted")
    waiters;
  let st = Registry.stats reg in
  check Alcotest.int "one cold build" 1 st.cold_builds;
  check Alcotest.int "four warm hits" 4 st.warm_hits;
  check Alcotest.int "no abandons" 0 st.abandons;
  check Alcotest.int "one ready fingerprint" 1 st.ready

let test_registry_abandon_hands_off () =
  let snap = make_snapshot () in
  let fp = snap.Persist.Snapshot.fingerprint in
  let reg = Registry.create () in
  (match Registry.acquire reg fp with
  | Registry.Build -> ()
  | Registry.Warm _ -> Alcotest.fail "first acquire must build");
  Registry.abandon reg fp;
  (* an abandoned build never seeds warm starts: the next acquire is a
     fresh builder, not a warm hit on a partial cache *)
  (match Registry.acquire reg fp with
  | Registry.Build -> ()
  | Registry.Warm _ -> Alcotest.fail "abandoned build must not warm-start");
  let st = Registry.stats reg in
  check Alcotest.int "abandon recorded" 1 st.abandons;
  check Alcotest.int "two cold builds" 2 st.cold_builds;
  check Alcotest.int "nothing ready" 0 st.ready

let test_registry_first_publish_wins () =
  let snap = make_snapshot () in
  let snap2 = make_snapshot () in
  let fp = snap.Persist.Snapshot.fingerprint in
  let reg = Registry.create () in
  ignore (Registry.acquire reg fp : Registry.admission);
  Registry.publish reg snap;
  Registry.publish reg snap2;
  match Registry.acquire reg fp with
  | Registry.Warm s ->
    check Alcotest.bool "second publish ignored" true (s == snap)
  | Registry.Build -> Alcotest.fail "published fingerprint must warm-start"

(* Spill files are named by the whole fingerprint: two configurations of
   one image that differ only in the cache capacity bound land in two
   files, and a registry restarted on the directory warm-starts both. *)
let test_registry_spill_per_fingerprint () =
  let snap cfg =
    let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc (prog ()) in
    ignore (Core.Vm.run ~fuel:200_000 vm : Core.Vm.outcome);
    Core.Vm.save_snapshot vm
  in
  let snaps =
    [ snap Core.Config.default;
      snap { Core.Config.default with tcache_max_slots = 100_000 } ]
  in
  let dir = Filename.temp_dir "ildp_registry" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let reg = Registry.create ~dir () in
      List.iter
        (fun (s : Persist.Snapshot.t) ->
          ignore (Registry.acquire reg s.fingerprint : Registry.admission);
          Registry.publish reg s)
        snaps;
      check Alcotest.int "one spill file per fingerprint" 2
        (Array.length (Sys.readdir dir));
      let fresh = Registry.create ~dir () in
      List.iteri
        (fun i (s : Persist.Snapshot.t) ->
          match Registry.acquire fresh s.fingerprint with
          | Registry.Warm w ->
            check Alcotest.bool
              (Printf.sprintf "config %d warm from its own file" i)
              true
              (w.Persist.Snapshot.fingerprint = s.fingerprint)
          | Registry.Build ->
            Alcotest.failf "config %d: restarted registry asked for a build" i)
        snaps)

(* ---------- Daemon: warm-start correctness ---------- *)

let ample = { Daemon.q_fuel = max_int / 2; q_image_bytes = max_int }

let request ?(tenant = "t0") ?(fuel = 100_000_000) label =
  { Daemon.rq_tenant = tenant; rq_label = label; rq_prog = prog (); rq_fuel = fuel }

(* N sessions of one image: exactly one cold build (single-flight, no
   duplicate translation), every warm session replays to the identical
   architected state with zero new superblocks. *)
let test_daemon_single_flight_sessions () =
  let svc = Daemon.create ~jobs:4 ~tenants:[ ("t0", ample) ] () in
  let sessions =
    List.init 8 (fun i ->
        match Daemon.submit svc (request (Printf.sprintf "s%d" i)) with
        | Ok s -> s
        | Error e -> Alcotest.failf "admission rejected: %s" e)
  in
  let results = List.map Daemon.wait sessions in
  Daemon.shutdown svc;
  let cold, warm =
    List.partition (fun (r : Daemon.result) -> not r.s_warm) results
  in
  check Alcotest.int "one cold build" 1 (List.length cold);
  check Alcotest.int "seven warm hits" 7 (List.length warm);
  let r0 = List.hd cold in
  List.iter
    (fun (r : Daemon.result) ->
      check Alcotest.string "output identical" r0.s_output r.s_output;
      check Alcotest.bool "checksum identical" true
        (r.s_checksum = r0.s_checksum);
      check Alcotest.int "warm session forms no superblocks" 0
        r.s_superblocks)
    warm;
  let st = Daemon.stats svc in
  check Alcotest.int "registry built once" 1 st.registry.Registry.cold_builds;
  check Alcotest.int "all admitted" 8 st.admitted;
  check Alcotest.int "all completed" 8 st.completed

(* ---------- Daemon: quotas ---------- *)

(* A tenant whose fuel quota is far below what the workload needs: the
   session must stop mid-run with a clean S_quota (never a crash), the
   fuel it consumed must be debited exactly, and the next request must be
   rejected at admission. *)
let test_quota_exceeded_mid_run () =
  let quota = 30_000 in
  let svc =
    Daemon.create ~jobs:1
      ~tenants:[ ("small", { Daemon.q_fuel = quota; q_image_bytes = max_int }) ]
      ()
  in
  let r =
    Daemon.run svc (request ~tenant:"small" ~fuel:100_000_000 "starved")
  in
  (match r.s_reason with
  | Daemon.S_quota -> ()
  | _ -> Alcotest.failf "expected S_quota, got %s" r.s_label);
  check Alcotest.bool "consumed at least the reserve" true
    (r.s_fuel_used >= quota);
  let st = Daemon.stats svc in
  check Alcotest.int "quota kill counted" 1 st.quota_kills;
  (* exact accounting: remaining = quota - consumed, to the instruction *)
  (match st.tenant_fuel_left with
  | [ ("small", left) ] ->
    check Alcotest.int "fuel ledger exact" (quota - r.s_fuel_used) left;
    check Alcotest.bool "quota exhausted" true (left <= 0)
  | _ -> Alcotest.fail "tenant ledger missing");
  (match Daemon.submit svc (request ~tenant:"small" "after") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "exhausted tenant must be rejected at admission");
  Daemon.shutdown svc;
  (* the quota-killed builder must have abandoned its slot, not published
     a partial cache *)
  let st = Daemon.stats svc in
  check Alcotest.int "partial build abandoned" 1
    st.registry.Registry.abandons;
  check Alcotest.int "nothing published" 0 st.registry.Registry.ready

(* Successful sessions are also debited exactly. *)
let test_fuel_ledger_exact_on_success () =
  let q = { Daemon.q_fuel = 10_000_000; q_image_bytes = max_int } in
  let svc = Daemon.create ~jobs:2 ~tenants:[ ("t0", q) ] () in
  let r1 = Daemon.run svc (request ~fuel:5_000_000 "a") in
  let r2 = Daemon.run svc (request ~fuel:5_000_000 "b") in
  Daemon.shutdown svc;
  (match (r1.s_reason, r2.s_reason) with
  | Daemon.S_exit _, Daemon.S_exit _ -> ()
  | _ -> Alcotest.fail "expected both sessions to exit");
  let st = Daemon.stats svc in
  match st.tenant_fuel_left with
  | [ ("t0", left) ] ->
    check Alcotest.int "ledger = quota - used(a) - used(b)"
      (q.Daemon.q_fuel - r1.s_fuel_used - r2.s_fuel_used)
      left
  | _ -> Alcotest.fail "tenant ledger missing"

(* ---------- Daemon: admission control ---------- *)

let test_admission_rejections () =
  let svc =
    Daemon.create ~jobs:1
      ~tenants:[ ("t0", { Daemon.q_fuel = 1_000; q_image_bytes = 4 }) ]
      ()
  in
  (match Daemon.submit svc (request ~tenant:"nobody" "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tenant admitted");
  (match Daemon.submit svc (request ~tenant:"t0" "y") with
  | Error _ -> () (* image far larger than 4 bytes *)
  | Ok _ -> Alcotest.fail "oversized image admitted");
  (match Daemon.submit svc { (request ~tenant:"t0" "z") with rq_fuel = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero-fuel request admitted");
  let st = Daemon.stats svc in
  check Alcotest.int "three rejections" 3 st.rejected;
  check Alcotest.int "none admitted" 0 st.admitted;
  Daemon.shutdown svc;
  match Daemon.submit svc (request "w") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shut-down service admitted a session"

(* capacity 1 over 1 worker: admission backpressure serialises the
   submissions, and every session still completes *)
let test_backpressure_completes () =
  let svc = Daemon.create ~jobs:1 ~capacity:1 ~tenants:[ ("t0", ample) ] () in
  let rs = List.init 4 (fun i -> Daemon.run svc (request (string_of_int i))) in
  Daemon.shutdown svc;
  List.iter
    (fun (r : Daemon.result) ->
      match r.s_reason with
      | Daemon.S_exit _ -> ()
      | _ -> Alcotest.failf "session %s did not exit cleanly" r.s_label)
    rs;
  let st = Daemon.stats svc in
  check Alcotest.int "all admitted" 4 st.admitted;
  check Alcotest.int "all completed" 4 st.completed

(* ---------- Daemon: drain-less shutdown ---------- *)

let test_shutdown_no_drain_refunds () =
  let q = { Daemon.q_fuel = 1_000_000_000; q_image_bytes = max_int } in
  let svc = Daemon.create ~jobs:1 ~capacity:16 ~tenants:[ ("t0", q) ] () in
  let sessions =
    List.init 6 (fun i ->
        match Daemon.submit svc (request (Printf.sprintf "s%d" i)) with
        | Ok s -> s
        | Error e -> Alcotest.failf "admission rejected: %s" e)
  in
  Daemon.shutdown ~drain:false svc;
  let rs = List.map Daemon.wait sessions in
  let cancelled =
    List.filter (fun (r : Daemon.result) -> r.s_reason = Daemon.S_cancelled) rs
  in
  let finished =
    List.filter
      (fun (r : Daemon.result) ->
        match r.s_reason with Daemon.S_exit _ -> true | _ -> false)
      rs
  in
  check Alcotest.int "every session resolved" 6
    (List.length cancelled + List.length finished);
  check Alcotest.bool "queued sessions were cancelled" true
    (List.length cancelled > 0);
  let st = Daemon.stats svc in
  check Alcotest.int "cancellations counted" (List.length cancelled)
    st.cancelled;
  (* cancelled reservations refunded in full; finished sessions debited
     exactly — the ledger closes to the instruction *)
  let used =
    List.fold_left (fun a (r : Daemon.result) -> a + r.s_fuel_used) 0 finished
  in
  match st.tenant_fuel_left with
  | [ ("t0", left) ] ->
    check Alcotest.int "ledger exact after cancellations"
      (q.Daemon.q_fuel - used) left
  | _ -> Alcotest.fail "tenant ledger missing"

(* Fewer sessions than images: only the images some session requests are
   built, so single-flight means one cold build per requested image (the
   load generator once demanded one per configured image, and
   [ildp_serve --sessions 2] failed its own gate). *)
let test_load_fewer_sessions_than_images () =
  let s = Harness.Service_bench.run_load ~sessions:2 ~images:4 ~jobs:1 () in
  check Alcotest.int "images clamped to the sessions" 2 s.images;
  check Alcotest.int "one cold build per image" s.images s.cold_builds;
  check Alcotest.int "every session completed" 2
    (s.warm_hits + s.cold_builds);
  check Alcotest.int "no divergence" 0 s.divergences

let suite =
  [
    ("registry: single-flight under contention", `Quick,
     test_registry_single_flight);
    ("registry: abandon hands the build off", `Quick,
     test_registry_abandon_hands_off);
    ("registry: first publish wins", `Quick, test_registry_first_publish_wins);
    ("registry: one spill file per fingerprint", `Quick,
     test_registry_spill_per_fingerprint);
    ("daemon: one build, warm sessions identical", `Quick,
     test_daemon_single_flight_sessions);
    ("daemon: quota exceeded mid-run is clean + exact", `Quick,
     test_quota_exceeded_mid_run);
    ("daemon: fuel ledger exact on success", `Quick,
     test_fuel_ledger_exact_on_success);
    ("daemon: admission rejections", `Quick, test_admission_rejections);
    ("daemon: backpressure completes", `Quick, test_backpressure_completes);
    ("daemon: drain-less shutdown refunds queued sessions", `Quick,
     test_shutdown_no_drain_refunds);
    ("load: fewer sessions than images", `Quick,
     test_load_fewer_sessions_than_images);
  ]
