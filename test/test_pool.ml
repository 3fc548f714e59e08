(* Worker pool and single-flight memo table: result ordering, exception
   propagation, dedup under contention, and the harness determinism
   guarantee (parallel prewarm changes nothing about rendered rows). *)

let check = Alcotest.check

(* ---------- Pool ---------- *)

let test_submit_await_ordering () =
  Harness.Pool.with_pool ~jobs:4 (fun pool ->
      let futs =
        List.init 100 (fun i -> Harness.Pool.submit pool (fun () -> i * i))
      in
      List.iteri
        (fun i fut ->
          check Alcotest.int
            (Printf.sprintf "job %d result" i)
            (i * i) (Harness.Pool.await fut))
        futs)

let test_await_twice () =
  Harness.Pool.with_pool ~jobs:2 (fun pool ->
      let fut = Harness.Pool.submit pool (fun () -> 42) in
      check Alcotest.int "first await" 42 (Harness.Pool.await fut);
      check Alcotest.int "second await" 42 (Harness.Pool.await fut))

exception Boom of string

let test_exception_propagation () =
  Harness.Pool.with_pool ~jobs:2 (fun pool ->
      let ok = Harness.Pool.submit pool (fun () -> "fine") in
      let bad = Harness.Pool.submit pool (fun () -> raise (Boom "worker")) in
      check Alcotest.string "good job unaffected" "fine" (Harness.Pool.await ok);
      match Harness.Pool.await bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom m -> check Alcotest.string "exn payload" "worker" m)

let test_pool_size_default () =
  let pool = Harness.Pool.create () in
  check Alcotest.int "default size" (Domain.recommended_domain_count ())
    (Harness.Pool.size pool);
  Harness.Pool.shutdown pool;
  Harness.Pool.shutdown pool (* idempotent *)

let test_submit_after_shutdown () =
  let pool = Harness.Pool.create ~jobs:1 () in
  Harness.Pool.shutdown pool;
  match Harness.Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* shutdown ~reject_queued: with the single worker pinned on a blocking
   job, queued futures can never have started; a drain-less shutdown must
   fail them all with Cancelled promptly — while the worker is still
   running — and the in-flight job must still complete normally. *)
let test_shutdown_rejects_queued () =
  let pool = Harness.Pool.create ~jobs:1 () in
  let gate = Mutex.create () in
  let turn = Condition.create () in
  let running = ref false in
  let release = ref false in
  let blocker =
    Harness.Pool.submit pool (fun () ->
        Mutex.lock gate;
        running := true;
        Condition.broadcast turn;
        while not !release do
          Condition.wait turn gate
        done;
        Mutex.unlock gate;
        "ran")
  in
  Mutex.lock gate;
  while not !running do
    Condition.wait turn gate
  done;
  Mutex.unlock gate;
  let queued =
    List.init 5 (fun i -> Harness.Pool.submit pool (fun () -> string_of_int i))
  in
  (* shutdown on another domain: it cancels the queued futures, then
     blocks joining the worker until the blocker is released *)
  let stopper =
    Domain.spawn (fun () -> Harness.Pool.shutdown ~reject_queued:true pool)
  in
  (* deterministic rejection: these awaits return (with Cancelled) while
     the only worker is still occupied — no hang, no execution *)
  List.iteri
    (fun i fut ->
      match Harness.Pool.await fut with
      | v -> Alcotest.failf "queued job %d ran: %s" i v
      | exception Harness.Pool.Cancelled -> ())
    queued;
  Mutex.lock gate;
  release := true;
  Condition.broadcast turn;
  Mutex.unlock gate;
  Domain.join stopper;
  check Alcotest.string "in-flight job still completed" "ran"
    (Harness.Pool.await blocker)

(* default shutdown still drains: queued jobs run to completion *)
let test_shutdown_drains_queued () =
  let pool = Harness.Pool.create ~jobs:1 () in
  let futs = List.init 20 (fun i -> Harness.Pool.submit pool (fun () -> i)) in
  Harness.Pool.shutdown pool;
  List.iteri
    (fun i fut -> check Alcotest.int "drained job" i (Harness.Pool.await fut))
    futs

(* many producers from distinct domains: all jobs complete exactly once *)
let test_pool_under_contention () =
  let counter = Atomic.make 0 in
  Harness.Pool.with_pool ~jobs:4 (fun pool ->
      let submitters =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                let futs =
                  List.init 50 (fun _ ->
                      Harness.Pool.submit pool (fun () ->
                          Atomic.incr counter))
                in
                List.iter Harness.Pool.await futs))
      in
      List.iter Domain.join submitters);
  check Alcotest.int "200 jobs ran once each" 200 (Atomic.get counter)

(* ---------- Memo (single-flight) ---------- *)

let test_memo_basic () =
  let tbl : (int, int) Taskpool.Memo.t = Taskpool.Memo.create 8 in
  let runs = ref 0 in
  let v = Taskpool.Memo.find_or_compute tbl 7 (fun () -> incr runs; 49) in
  check Alcotest.int "computed" 49 v;
  let v = Taskpool.Memo.find_or_compute tbl 7 (fun () -> incr runs; 0) in
  check Alcotest.int "cached" 49 v;
  check Alcotest.int "one computation" 1 !runs;
  check Alcotest.int "one entry" 1 (Taskpool.Memo.length tbl);
  check Alcotest.bool "mem" true (Taskpool.Memo.mem tbl 7)

let test_memo_single_flight_under_contention () =
  let tbl : (string, int) Taskpool.Memo.t = Taskpool.Memo.create 8 in
  let runs = Atomic.make 0 in
  let compute () =
    Atomic.incr runs;
    (* widen the race window so every domain requests mid-flight *)
    Unix.sleepf 0.05;
    123
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Taskpool.Memo.find_or_compute tbl "key" compute))
  in
  let results = List.map Domain.join domains in
  List.iter (fun v -> check Alcotest.int "shared value" 123 v) results;
  check Alcotest.int "computed exactly once" 1 (Atomic.get runs)

let test_memo_failure_not_cached () =
  let tbl : (int, int) Taskpool.Memo.t = Taskpool.Memo.create 8 in
  (match Taskpool.Memo.find_or_compute tbl 1 (fun () -> raise (Boom "first")) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom _ -> ());
  check Alcotest.bool "failed key evicted" false (Taskpool.Memo.mem tbl 1);
  let v = Taskpool.Memo.find_or_compute tbl 1 (fun () -> 11) in
  check Alcotest.int "retry succeeds" 11 v

(* ---------- determinism: parallel prewarm = serial rendering ---------- *)

let render (e : Harness.Experiments.exp) =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  e.render fmt ~scale:1;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let exp id = Option.get (Harness.Experiments.find id)

let test_parallel_prewarm_deterministic () =
  let ids = [ "table2"; "fig4" ] in
  (* serial baseline: render with cold caches, 1 job *)
  Harness.Runner.reset_caches ();
  let serial =
    Harness.Pool.with_pool ~jobs:1 (fun pool ->
        List.map
          (fun id ->
            Harness.Runner.prewarm ~pool ((exp id).plan ~scale:1);
            render (exp id))
          ids)
  in
  (* parallel: cold caches again, 4 worker domains *)
  Harness.Runner.reset_caches ();
  let parallel =
    Harness.Pool.with_pool ~jobs:4 (fun pool ->
        List.map
          (fun id ->
            Harness.Runner.prewarm ~pool ((exp id).plan ~scale:1);
            render (exp id))
          ids)
  in
  List.iter2
    (fun id (s, p) ->
      check Alcotest.string (id ^ " byte-identical at --jobs 1 vs 4") s p)
    ids
    (List.combine serial parallel)

(* a prewarmed render never simulates: the plan covers every lookup *)
let test_plan_covers_render () =
  Harness.Runner.reset_caches ();
  Harness.Pool.with_pool ~jobs:2 (fun pool ->
      Harness.Runner.prewarm ~pool ((exp "fig5").plan ~scale:1));
  let before = Sys.time () in
  ignore (render (exp "fig5"));
  let cpu = Sys.time () -. before in
  (* formatting memoised rows takes microseconds; a simulation run takes
     whole seconds of CPU. 0.5 s leaves three orders of magnitude slack. *)
  check Alcotest.bool "render hit only warm caches" true (cpu < 0.5)

let suite =
  [
    ("pool: submit/await ordering", `Quick, test_submit_await_ordering);
    ("pool: await is repeatable", `Quick, test_await_twice);
    ("pool: exception propagation", `Quick, test_exception_propagation);
    ("pool: default size + double shutdown", `Quick, test_pool_size_default);
    ("pool: submit after shutdown", `Quick, test_submit_after_shutdown);
    ("pool: shutdown rejects queued futures", `Quick,
     test_shutdown_rejects_queued);
    ("pool: shutdown drains by default", `Quick, test_shutdown_drains_queued);
    ("pool: contention", `Quick, test_pool_under_contention);
    ("memo: basics", `Quick, test_memo_basic);
    ("memo: single-flight under contention", `Quick,
     test_memo_single_flight_under_contention);
    ("memo: failures retry", `Quick, test_memo_failure_not_cached);
    ("harness: --jobs 1 vs 4 byte-identical", `Slow,
     test_parallel_prewarm_deterministic);
    ("harness: plan covers render", `Slow, test_plan_covers_render);
  ]
