(* service-mix: a [Service.Daemon] with nproc workers and four tenants.
   Set-up pre-publishes gzip, nn_mlp, gcc and mcf at scale 1. Sessions
   then arrive open-loop at a fixed [rate] from this one generator thread
   for [seconds]: exactly 90% on the four warm images in equal shares
   (registry read, snapshot restore and prewarm) and 10% on unique
   [Stress.generate] images (cold translate, [save_snapshot] and publish:
   the write path), in a seeded order. Three closed-loop bursts with the
   same mix follow, the generator submitting as fast as admission control
   lets it; [ops_per_s] is the median burst's rate. Why: this is the
   warm/cold path of the translation service, which the other workloads
   bypass.

   Each open-loop session's latency counts from when it was due:
   (return of [submit] - due) + the daemon's own admission-to-completion
   time, so a stall also charges the sessions queued behind it.

   Validity guard: a session the generator itself offered more than
   [late_limit_ms] after it was due (not counting time blocked in the
   previous [submit]) was not offered at the intended rate, so it counts
   as a failed operation and the run's result is not correct. *)

module D = Service.Daemon

let rate = 40.0
let late_limit_ms = 50.0
let bursts = 3
let warm_names = [ "gzip"; "nn_mlp"; "gcc"; "mcf" ]
let n_warm = List.length warm_names

type inputs = {
  daemon : D.t;
  progs : Alpha.Program.t array;  (* the warm images, then the unique ones *)
  mutable blocks : int array list;
      (* sessions still to send, as indexes into [progs] *)
}

(* One open-loop session as the generator offered it: when it was due,
   when [submit] was called and returned, and how late the generator was. *)
type offer = { due : float; call : float; ret : float; late_ms : float }

let tenant i = Printf.sprintf "tenant-%d" (i mod 4)

let request i prog =
  { D.rq_tenant = tenant i; rq_label = Printf.sprintf "s%d" i;
    rq_prog = prog; rq_fuel = Common.fuel }

(* The sessions of one measurement: an open-loop block, then [bursts]
   burst blocks. *)
let block_sizes (ctx : Common.ctx) ~seconds =
  let n_open, n_burst =
    if ctx.smoke then (20, 10) else (int_of_float (rate *. seconds), 100)
  in
  n_open :: List.init bursts (fun _ -> n_burst)

let setup (ctx : Common.ctx) =
  let rng = Machine.Rng.create ctx.seed in
  let uniques = ref [] in
  let unique () =
    let seed = (ctx.seed * 1_000_003) + 500_000 + List.length !uniques in
    uniques := Oracle.Gen.assemble (Stress.generate ~seed) :: !uniques;
    n_warm + List.length !uniques - 1
  in
  let block n =
    let n_unique = (n + 5) / 10 in
    Common.shuffle
      ~seed:(Machine.Rng.int rng max_int)
      (Array.init n (fun i ->
           if i < n_unique then unique () else (i - n_unique) mod n_warm))
  in
  let halves =
    if ctx.trace then [ ctx.seconds /. 2.0; ctx.seconds /. 2.0 ]
    else [ ctx.seconds ]
  in
  let blocks =
    List.concat_map
      (fun seconds -> List.map block (block_sizes ctx ~seconds))
      halves
  in
  let images =
    List.map
      (fun n -> Minic.compile ((Option.get (Workloads.find n)).source ~scale:1))
      warm_names
  in
  let quota = { D.q_fuel = max_int; q_image_bytes = max_int } in
  let daemon =
    D.create ~jobs:Common.nproc
      ~tenants:(List.init 4 (fun i -> (tenant i, quota)))
      ()
  in
  List.iteri
    (fun i prog ->
      match (D.run daemon (request i prog)).s_reason with
      | D.S_exit _ -> ()
      | _ -> failwith "service-mix: pre-publishing a warm image failed")
    images;
  { daemon; progs = Array.of_list (images @ List.rev !uniques); blocks }

let dispose inp = D.shutdown inp.daemon

let next_block inp =
  match inp.blocks with
  | b :: rest ->
    inp.blocks <- rest;
    b
  | [] -> invalid_arg "service-mix: no sessions left"

let final (r : D.result) =
  {
    Common.outcome =
      (match r.s_reason with
      | D.S_exit c -> Printf.sprintf "exit:%d" c
      | D.S_fault m -> m
      | D.S_fuel -> "fuel"
      | D.S_quota -> "quota"
      | D.S_cancelled -> "cancelled");
    output = r.s_output;
    checksum = r.s_checksum;
    insns = r.s_fuel_used;
  }

(* The session counts were fixed in set-up from [ctx.seconds]. *)
let measure (_ : Common.ctx) inp ~seconds:_ =
  let open_plan = next_block inp in
  let burst_plans = List.init bursts (fun _ -> next_block inp) in
  let sent = ref 0 in
  let submit p =
    let i = !sent in
    incr sent;
    Span.with_ ~req:i "daemon.submit" (fun () ->
        D.submit inp.daemon (request i inp.progs.(p)))
  in
  let wait = function
    | Ok s -> Some (Span.with_ "daemon.wait" (fun () -> D.wait s))
    | Error _ -> None
  in
  let offers, open_results, bursted =
    Span.with_ "phase" (fun () ->
        let t0 = Common.now () in
        let prev_return = ref t0 in
        let sent =
          Array.mapi
            (fun i p ->
              let due = t0 +. (float_of_int i /. rate) in
              let d = due -. Common.now () in
              if d > 0.0 then
                Span.with_ ~req:i "gen.sleep" (fun () -> Unix.sleepf d);
              let call = Common.now () in
              let s = submit p in
              let ret = Common.now () in
              (* lateness of the generator itself, not of a blocked submit *)
              let late = call -. Float.max due !prev_return in
              prev_return := ret;
              ({ due; call; ret; late_ms = late *. 1000.0 }, s))
            open_plan
        in
        let burst plan =
          Common.time (fun () -> Array.map wait (Array.map submit plan))
        in
        let opened = Array.map (fun (_, s) -> wait s) sent in
        (Array.map fst sent, opened, List.map burst burst_plans))
  in
  let lat_ms =
    Array.map2
      (fun o -> function
        | Some (r : D.result) -> ((o.ret -. o.due) *. 1000.0) +. r.s_latency_ms
        | None -> infinity)
      offers open_results
  in
  let late_ms = Array.fold_left (fun a o -> Float.max a o.late_ms) 0.0 offers in
  let completed =
    List.concat_map
      (fun rs -> List.filter_map Fun.id (Array.to_list rs))
      (open_results :: List.map fst bursted)
  in
  let mean_ms warm =
    Harness.Runner.mean
      (List.filter_map
         (function
           | Some (r : D.result) when r.s_warm = warm -> Some r.s_latency_ms
           | _ -> None)
         (Array.to_list open_results))
  in
  let admit_ms =
    Array.to_list (Array.map (fun o -> (o.ret -. o.call) *. 1000.0) offers)
  in
  let fuel rs =
    Array.fold_left
      (fun a -> function Some (r : D.result) -> a + r.s_fuel_used | None -> a)
      0 rs
  in
  let golden = Common.golden_table inp.progs in
  let ok p = function
    | None -> false
    | Some (r : D.result) ->
      final r = golden p
      && r.s_warm = (p < n_warm)
      && ((not r.s_warm) || r.s_superblocks = 0)
  in
  let verify () =
    let failed = ref 0 in
    let late = ref 0 in
    Array.iteri
      (fun j p ->
        let on_time = offers.(j).late_ms <= late_limit_ms in
        if not on_time then incr late;
        if not (on_time && ok p open_results.(j)) then begin
          incr failed;
          lat_ms.(j) <- infinity
        end)
      open_plan;
    if !late > 0 then
      Printf.printf
        "# invalid: %d sessions offered more than %.0f ms late (worst %.1f \
         ms), counted as failed\n"
        !late late_limit_ms late_ms;
    List.iter2
      (fun plan (rs, _) ->
        Array.iteri (fun j p -> if not (ok p rs.(j)) then incr failed) plan)
      burst_plans bursted;
    (!failed, !sent)
  in
  let n_warm_done =
    List.length (List.filter (fun (r : D.result) -> r.s_warm) completed)
  in
  let per_burst f = Stats.median (List.map f bursted) in
  {
    Common.ops_per_s =
      per_burst (fun (rs, secs) -> float_of_int (Array.length rs) /. secs);
    guest_mips =
      per_burst (fun (rs, secs) -> float_of_int (fuel rs) /. secs /. 1e6);
    lat_ms;
    retired =
      List.fold_left (fun a (r : D.result) -> a + r.s_fuel_used) 0 completed;
    extra =
      [ ( "service.admit_wait_ms",
          Harness.Service_bench.percentile (Stats.sorted admit_ms) 0.99 );
        ("service.warm_ms", mean_ms true);
        ("service.cold_ms", mean_ms false);
        ( "service.warm_hit_rate",
          float_of_int n_warm_done
          /. float_of_int (max 1 (List.length completed)) );
        ("service.gen_late_ms", late_ms) ];
    verify;
  }

(* Traced runs only: the persistence layer timed from outside, on the warm
   images and up to eight unique ones — [save_snapshot] and its encoded
   size after a cold run, then [Vm.create ~snapshot] (restore + prewarm)
   of each warm image five times. *)
let probe inp =
  let n = min (Array.length inp.progs) (n_warm + 8) in
  let saved =
    List.init n (fun p ->
        let vm = Core.Vm.create ~kind:Core.Vm.Acc inp.progs.(p) in
        ignore (Core.Vm.run ~fuel:Common.fuel vm);
        let snap, secs = Common.time (fun () -> Core.Vm.save_snapshot vm) in
        let bytes = String.length (Persist.Snapshot.to_string snap) in
        (p, snap, secs, float_of_int bytes))
  in
  let restore (p, snap, _, _) =
    if p >= n_warm then []
    else
      List.init 5 (fun _ ->
          snd
            (Common.time (fun () ->
                 Core.Vm.create ~snapshot:snap ~kind:Core.Vm.Acc
                   inp.progs.(p))))
  in
  let mean f = Harness.Runner.mean (List.map f saved) in
  [ ("persist.save_ms", 1000.0 *. mean (fun (_, _, secs, _) -> secs));
    ("persist.snapshot_kb", mean (fun (_, _, _, b) -> b /. 1024.0));
    ( "vm.restore_ms",
      1000.0 *. Harness.Runner.mean (List.concat_map restore saved) ) ]
