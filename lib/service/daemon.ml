(* Translation service: bounded admission over a shared worker pool plus
   the single-flight snapshot registry. See daemon.mli for the contract.

   Locking order: the service lock [m] is never held while running a
   session or touching the registry/pool, and the registry never calls
   back into the service, so there is a strict service -> registry ->
   future lock hierarchy and no cycle.

   Deadlock-freedom of warm waits: [Registry.acquire] runs inside the
   session job, and the job that is told [Build] performs the build
   itself before returning. A [Building] slot therefore only exists while
   its builder occupies a worker, so jobs blocked in [acquire] always
   wait on live progress; the builder never waits on anything. *)

type tenant_quota = { q_fuel : int; q_image_bytes : int }

type request = {
  rq_tenant : string;
  rq_label : string;
  rq_prog : Alpha.Program.t;
  rq_fuel : int;
}

type reason =
  | S_exit of int
  | S_fault of string
  | S_fuel
  | S_quota
  | S_cancelled

type result = {
  s_label : string;
  s_tenant : string;
  s_reason : reason;
  s_warm : bool;
  s_fuel_used : int;
  s_output : string;
  s_checksum : int64;
  s_superblocks : int;
  s_translate_units : int;
  s_latency_ms : float;
}

type tenant = {
  tn_quota : tenant_quota;
  mutable tn_fuel_left : int;
}

type t = {
  cfg : Core.Config.t;
  pool : Taskpool.Pool.t;
  registry : Registry.t;
  tenants : (string, tenant) Hashtbl.t;
  capacity : int;
  m : Mutex.t;
  not_full : Condition.t;
  mutable in_flight : int;  (* admitted but not yet completed *)
  mutable accepting : bool;
  mutable admitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable quota_kills : int;
  mutable cancelled : int;
}

type session = {
  sq_service : t;
  sq_request : request;
  sq_reserve : int;  (* fuel debited at admission, for cancel refunds *)
  sq_fut : result Taskpool.Pool.future;
  mutable sq_refunded : bool;  (* guarded by the service lock: [wait] is
                                  repeatable, the refund must not be *)
}

type stats = {
  admitted : int;
  rejected : int;
  completed : int;
  quota_kills : int;
  cancelled : int;
  registry : Registry.stats;
  tenant_fuel_left : (string * int) list;
}

(* Telemetry; all dormant unless [Obs.set_enabled true]. *)
let c_admitted = Obs.counter "service.sessions_admitted"
let c_rejected = Obs.counter "service.sessions_rejected"
let c_warm = Obs.counter "service.warm_hits"
let c_cold = Obs.counter "service.cold_builds"
let c_quota = Obs.counter "service.quota_kills"
let g_depth = Obs.max_gauge "service.queue_depth"

let h_latency =
  Obs.histogram "service.session_latency_ms"
    ~bounds:[| 1; 3; 10; 30; 100; 300; 1000; 3000; 10000 |]

let create ?(cfg = Core.Config.default) ?jobs ?capacity ?spill_dir ~tenants ()
    =
  let pool = Taskpool.Pool.create ?jobs () in
  let capacity =
    match capacity with
    | Some c -> max 1 c
    | None -> 4 * Taskpool.Pool.size pool
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, q) ->
      Hashtbl.replace tbl name { tn_quota = q; tn_fuel_left = q.q_fuel })
    tenants;
  {
    cfg;
    pool;
    registry = Registry.create ?dir:spill_dir ();
    tenants = tbl;
    capacity;
    m = Mutex.create ();
    not_full = Condition.create ();
    in_flight = 0;
    accepting = true;
    admitted = 0;
    rejected = 0;
    completed = 0;
    quota_kills = 0;
    cancelled = 0;
  }

let image_bytes (prog : Alpha.Program.t) =
  String.length prog.text.bytes + String.length prog.data.bytes

(* Exact fuel consumed by a VM run: instructions interpreted plus V-ISA
   instructions retired in translated fragments. Every fuel decrement in
   [Core.Vm] is one of these two, so this reproduces the VM's own
   accounting to the instruction (asserted by test_service). *)
let fuel_used vm =
  vm.Core.Vm.interp_insns + (Core.Vm.engine_stats vm).alpha_retired

(* Runs on a pool worker. [reserve] fuel was debited at admission; the
   difference against actual use is settled here, under the service
   lock, together with the backpressure bookkeeping. *)
let run_session t (rq : request) ~reserve ~admitted_at =
  let fp =
    Core.Config.fingerprint t.cfg ~backend:"acc"
      ~image_digest:(Core.Vm.image_digest rq.rq_prog)
  in
  let admission = Registry.acquire t.registry fp in
  let snapshot, warm =
    match admission with
    | Registry.Warm snap ->
      Obs.bump c_warm 1;
      (Some snap, true)
    | Registry.Build ->
      Obs.bump c_cold 1;
      (None, false)
  in
  let vm = Core.Vm.create ~cfg:t.cfg ?snapshot ~kind:Core.Vm.Acc rq.rq_prog in
  let outcome =
    try Core.Vm.run ~fuel:reserve vm
    with e ->
      if not warm then Registry.abandon t.registry fp;
      (* settle before re-raising so the tenant is still charged *)
      let used = fuel_used vm in
      Mutex.lock t.m;
      (match Hashtbl.find_opt t.tenants rq.rq_tenant with
      | Some tn -> tn.tn_fuel_left <- tn.tn_fuel_left + reserve - used
      | None -> ());
      t.in_flight <- t.in_flight - 1;
      t.completed <- t.completed + 1;
      Condition.broadcast t.not_full;
      Mutex.unlock t.m;
      raise e
  in
  let reason =
    match outcome with
    | Core.Vm.Exit code -> S_exit code
    | Core.Vm.Fault tr ->
      S_fault (Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr)
    | Core.Vm.Out_of_fuel ->
      if reserve < rq.rq_fuel then S_quota else S_fuel
  in
  (* Only a successful cold run publishes: a fault/fuel-killed VM holds a
     partial translation cache that must never seed warm starts. *)
  if not warm then begin
    match reason with
    | S_exit _ -> Registry.publish t.registry (Core.Vm.save_snapshot vm)
    | S_fault _ | S_fuel | S_quota | S_cancelled ->
      Registry.abandon t.registry fp
  end;
  let used = fuel_used vm in
  let latency_ms = (Unix.gettimeofday () -. admitted_at) *. 1000. in
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.tenants rq.rq_tenant with
  | Some tn -> tn.tn_fuel_left <- tn.tn_fuel_left + reserve - used
  | None -> ());
  t.in_flight <- t.in_flight - 1;
  t.completed <- t.completed + 1;
  if reason = S_quota then begin
    t.quota_kills <- t.quota_kills + 1;
    Obs.bump c_quota 1
  end;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m;
  Obs.observe h_latency (int_of_float latency_ms);
  {
    s_label = rq.rq_label;
    s_tenant = rq.rq_tenant;
    s_reason = reason;
    s_warm = warm;
    s_fuel_used = used;
    s_output = Core.Vm.output vm;
    s_checksum = Core.Vm.reg_checksum vm;
    s_superblocks = vm.Core.Vm.superblocks;
    s_translate_units = (Core.Vm.cost vm).Core.Cost.translate_units;
    s_latency_ms = latency_ms;
  }

let submit t (rq : request) =
  Mutex.lock t.m;
  let reject msg =
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.m;
    Obs.bump c_rejected 1;
    Error msg
  in
  if not t.accepting then reject "service is shutting down"
  else
    match Hashtbl.find_opt t.tenants rq.rq_tenant with
    | None -> reject (Printf.sprintf "unknown tenant %S" rq.rq_tenant)
    | Some tn ->
      let bytes = image_bytes rq.rq_prog in
      if bytes > tn.tn_quota.q_image_bytes then
        reject
          (Printf.sprintf "image %d bytes exceeds tenant quota %d" bytes
             tn.tn_quota.q_image_bytes)
      else if rq.rq_fuel <= 0 then reject "non-positive fuel request"
      else if tn.tn_fuel_left <= 0 then reject "tenant fuel quota exhausted"
      else begin
        (* Backpressure: hold the caller until a slot frees up. Shutdown
           broadcasts [not_full], so blocked submitters re-check
           [accepting] and reject instead of hanging. *)
        while t.in_flight >= t.capacity && t.accepting do
          Condition.wait t.not_full t.m
        done;
        if not t.accepting then reject "service is shutting down"
        else begin
          let reserve = min rq.rq_fuel tn.tn_fuel_left in
          tn.tn_fuel_left <- tn.tn_fuel_left - reserve;
          t.in_flight <- t.in_flight + 1;
          t.admitted <- t.admitted + 1;
          Obs.bump c_admitted 1;
          Obs.set_max g_depth t.in_flight;
          Mutex.unlock t.m;
          let admitted_at = Unix.gettimeofday () in
          let fut =
            Taskpool.Pool.submit t.pool (fun () ->
                run_session t rq ~reserve ~admitted_at)
          in
          Ok
            {
              sq_service = t;
              sq_request = rq;
              sq_reserve = reserve;
              sq_fut = fut;
              sq_refunded = false;
            }
        end
      end

(* A cancelled session never started: refund its reservation in full so
   drain-less shutdown leaves tenant accounts exactly as if the session
   had been rejected at admission. *)
let cancelled_result session =
  let t = session.sq_service in
  let rq = session.sq_request in
  Mutex.lock t.m;
  if not session.sq_refunded then begin
    session.sq_refunded <- true;
    (match Hashtbl.find_opt t.tenants rq.rq_tenant with
    | Some tn -> tn.tn_fuel_left <- tn.tn_fuel_left + session.sq_reserve
    | None -> ());
    t.in_flight <- t.in_flight - 1;
    t.cancelled <- t.cancelled + 1;
    Condition.broadcast t.not_full
  end;
  Mutex.unlock t.m;
  {
    s_label = rq.rq_label;
    s_tenant = rq.rq_tenant;
    s_reason = S_cancelled;
    s_warm = false;
    s_fuel_used = 0;
    s_output = "";
    s_checksum = 0L;
    s_superblocks = 0;
    s_translate_units = 0;
    s_latency_ms = 0.;
  }

let wait session =
  try Taskpool.Pool.await session.sq_fut
  with Taskpool.Pool.Cancelled -> cancelled_result session

let run t rq =
  match submit t rq with
  | Ok session -> wait session
  | Error msg ->
    {
      s_label = rq.rq_label;
      s_tenant = rq.rq_tenant;
      s_reason = S_fault ("rejected: " ^ msg);
      s_warm = false;
      s_fuel_used = 0;
      s_output = "";
      s_checksum = 0L;
      s_superblocks = 0;
      s_translate_units = 0;
      s_latency_ms = 0.;
    }

let shutdown ?(drain = true) t =
  Mutex.lock t.m;
  t.accepting <- false;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m;
  Taskpool.Pool.shutdown ~reject_queued:(not drain) t.pool

let stats (t : t) =
  let registry = Registry.stats t.registry in
  Mutex.lock t.m;
  let tenant_fuel_left =
    Hashtbl.fold (fun name tn acc -> (name, tn.tn_fuel_left) :: acc) t.tenants
      []
    |> List.sort compare
  in
  let s =
    {
      admitted = t.admitted;
      rejected = t.rejected;
      completed = t.completed;
      quota_kills = t.quota_kills;
      cancelled = t.cancelled;
      registry;
      tenant_fuel_left;
    }
  in
  Mutex.unlock t.m;
  s
