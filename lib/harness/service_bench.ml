module Daemon = Service.Daemon

(* Load generator for the translation service.

   Drives [sessions] guest sessions over [images] distinct workload
   images through one [Daemon.t], in a seeded-shuffled arrival order so
   cold and warm requests for every image interleave. The single-flight
   registry means exactly one session per image pays translation; every
   other session must warm-start, replay deterministically (zero new
   superblocks) and finish in the same architected state as a serial
   reference run of that image — every session is cross-checked against
   the reference output, register checksum and exit code.

   Headline metrics: warm-hit rate and the translation-work reduction in
   deterministic cost-model units (both host-independent); wall-clock
   throughput (sessions/sec) and latency percentiles ride along as notes.
   ildp_serve exits 1 on any divergence, and in a plain run (no fuel
   quota, no spill directory) also unless every session completed, one
   per image built cold, and the reduction reached [reduction_floor]. *)

type image_ref = {
  i_name : string;
  i_prog : Alpha.Program.t;
  i_outcome : string;  (* "exit:N" / "trap:..." / "fuel" *)
  i_output : string;
  i_checksum : int64;
}

type image_row = {
  r_name : string;
  r_sessions : int;
  r_cold_xunits : int;  (* translate units paid by this image's cold run *)
  r_warm_xunits : int;  (* total residual units across its warm runs *)
  r_mean_cold_ms : float;
  r_mean_warm_ms : float;
  r_divergences : int;
}

type summary = {
  sessions : int;
  images : int;
  seed : int;
  divergences : int;
  warm_hits : int;
  cold_builds : int;
  quota_kills : int;
  rejected : int;
  warm_hit_rate : float;
  translate_reduction : float;
      (* 1 - mean warm session xunits / mean cold session xunits *)
  wall_secs : float;
  sessions_per_sec : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  rows : image_row list;
}

let default_fuel = 100_000_000

(* 0.75 x the 96.69% translate reduction of 1000 sessions over 4 images
   recorded when the service landed; 50 sessions measure 96.7% too. *)
let reduction_floor = 0.725

(* Curated image pool for the load generator. The default four-image mix
   deliberately spans workload classes — loop-dominated compression
   (gzip), a quantized NN inference kernel (nn_mlp), branchy compilation
   (gcc), and pointer-chasing (mcf) — so the shared warm cache serves
   heterogeneous images rather than whichever workloads happen to lead
   the registry. Larger image counts extend with the rest of the registry
   in order. *)
let image_pool () =
  let curated = [ "gzip"; "nn_mlp"; "gcc"; "mcf" ] in
  List.filter_map Workloads.find curated
  @ List.filter
      (fun (w : Workloads.t) -> not (List.mem w.name curated))
      Workloads.all

(* Serial reference: each image cold, standalone, same config and fuel as
   the service sessions — the ground truth every session must match. *)
let reference ~cfg ~scale ~fuel (w : Workloads.t) =
  let prog = Workloads.program ~scale w in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  let outcome = Core.Vm.run ~fuel vm in
  {
    i_name = w.name;
    i_prog = prog;
    i_outcome = Runner.outcome_string outcome;
    i_output = Core.Vm.output vm;
    i_checksum = Core.Vm.reg_checksum vm;
  }

let reason_string = function
  | Daemon.S_exit c -> Printf.sprintf "exit:%d" c
  | Daemon.S_fault m -> m
  | Daemon.S_fuel -> "fuel"
  | Daemon.S_quota -> "quota"
  | Daemon.S_cancelled -> "cancelled"

let verify_final (img : image_ref) (r : Daemon.result) =
  let ms = ref [] in
  if reason_string r.s_reason <> img.i_outcome then
    ms :=
      Printf.sprintf "outcome %s vs %s" (reason_string r.s_reason)
        img.i_outcome
      :: !ms;
  if r.s_output <> img.i_output then ms := "output differs" :: !ms;
  if r.s_checksum <> img.i_checksum then
    ms :=
      Printf.sprintf "reg_checksum %#Lx vs %#Lx" r.s_checksum img.i_checksum
      :: !ms;
  if r.s_warm && r.s_superblocks <> 0 then
    ms :=
      Printf.sprintf "warm session formed %d superblocks" r.s_superblocks
      :: !ms;
  List.rev !ms

(* Divergence messages for one session result against its reference.
   Quota-killed and shutdown-cancelled sessions are not compared: they
   stopped early by design (tracked by the quota_kills/cancelled
   counters), so they have no final state to check. *)
let verify (img : image_ref) (r : Daemon.result) =
  match r.s_reason with
  | Daemon.S_quota | Daemon.S_cancelled -> []
  | Daemon.S_exit _ | Daemon.S_fault _ | Daemon.S_fuel -> verify_final img r

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let run_load ?(sessions = 1000) ?(images = 4) ?(tenants = 4) ?(scale = 1)
    ?(fuel = default_fuel) ?tenant_fuel ?jobs ?capacity ?spill_dir ?(seed = 1)
    ?(on_progress = fun _ -> ()) () =
  let cfg = Core.Config.default in
  let pool = image_pool () in
  (* only images some session requests get built: with fewer sessions
     than images, the single-flight count is one build per session *)
  let images =
    max 1 (List.fold_left Int.min images [ sessions; List.length pool ])
  in
  let refs =
    List.filteri (fun i _ -> i < images) pool
    |> List.map (reference ~cfg ~scale ~fuel)
    |> Array.of_list
  in
  (* Arrival order: round-robin over images, then a seeded Fisher-Yates
     shuffle, so warm requests for an image race both its builder and
     each other while several images are in flight at once. *)
  let order = Array.init sessions (fun i -> i mod images) in
  let rng = Machine.Rng.create seed in
  for i = sessions - 1 downto 1 do
    let j = Machine.Rng.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  (* By default every load tenant gets ample fuel — quota kills are a
     correctness feature, not part of the throughput story — but
     [?tenant_fuel] (ildp_serve --fuel-quota) caps it to demonstrate
     clean mid-run quota kills under load. *)
  let quota =
    {
      Daemon.q_fuel =
        (match tenant_fuel with Some q -> q | None -> fuel * sessions);
      q_image_bytes = max_int;
    }
  in
  let tenants = max 1 tenants in
  let tenant_names = List.init tenants (Printf.sprintf "tenant-%d") in
  let svc =
    Daemon.create ~cfg ?jobs ?capacity ?spill_dir
      ~tenants:(List.map (fun n -> (n, quota)) tenant_names)
      ()
  in
  let t0 = Unix.gettimeofday () in
  (* submit all (the service's admission control throttles us), then
     redeem; [handles] keeps (image index, session) pairs in order *)
  let handles =
    Array.mapi
      (fun i img_idx ->
        let img = refs.(img_idx) in
        let rq =
          {
            Daemon.rq_tenant = List.nth tenant_names (i mod tenants);
            rq_label = Printf.sprintf "s%04d-%s" i img.i_name;
            rq_prog = img.i_prog;
            rq_fuel = fuel;
          }
        in
        match Daemon.submit svc rq with
        | Ok session -> (img_idx, Some session)
        | Error _ -> (img_idx, None))
      order
  in
  let results =
    Array.map
      (fun (img_idx, session) ->
        let r = Option.map Daemon.wait session in
        on_progress 1;
        (img_idx, r))
      handles
  in
  Daemon.shutdown svc;
  let wall_secs = Unix.gettimeofday () -. t0 in
  let stats = Daemon.stats svc in
  (* aggregate per image *)
  let rows =
    Array.to_list
      (Array.mapi
         (fun img_idx img ->
           let mine =
             Array.to_list results
             |> List.filter_map (fun (i, r) ->
                    if i = img_idx then r else None)
           in
           let cold, warm =
             List.partition (fun (r : Daemon.result) -> not r.s_warm) mine
           in
           let sum_x rs =
             List.fold_left
               (fun a (r : Daemon.result) -> a + r.s_translate_units)
               0 rs
           in
           let mean_ms rs =
             match rs with
             | [] -> 0.0
             | _ ->
               List.fold_left
                 (fun a (r : Daemon.result) -> a +. r.s_latency_ms)
                 0.0 rs
               /. float_of_int (List.length rs)
           in
           let divergences =
             List.fold_left
               (fun a r -> a + List.length (verify img r))
               0 mine
           in
           {
             r_name = img.i_name;
             r_sessions = List.length mine;
             r_cold_xunits = sum_x cold;
             r_warm_xunits = sum_x warm;
             r_mean_cold_ms = mean_ms cold;
             r_mean_warm_ms = mean_ms warm;
             r_divergences = divergences;
           })
         refs)
  in
  let completed =
    Array.to_list results |> List.filter_map (fun (_, r) -> r)
  in
  let warm_hits =
    List.length (List.filter (fun (r : Daemon.result) -> r.s_warm) completed)
  in
  let cold_builds = List.length completed - warm_hits in
  let cold_x =
    List.fold_left
      (fun a (r : Daemon.result) ->
        if r.s_warm then a else a + r.s_translate_units)
      0 completed
  in
  let warm_x =
    List.fold_left
      (fun a (r : Daemon.result) ->
        if r.s_warm then a + r.s_translate_units else a)
      0 completed
  in
  let translate_reduction =
    if cold_builds = 0 || warm_hits = 0 || cold_x <= 0 then 0.0
    else
      1.0
      -. float_of_int warm_x /. float_of_int warm_hits
         /. (float_of_int cold_x /. float_of_int cold_builds)
  in
  let latencies =
    List.map (fun (r : Daemon.result) -> r.s_latency_ms) completed
    |> Array.of_list
  in
  Array.sort compare latencies;
  let divergences =
    List.fold_left (fun a (r : image_row) -> a + r.r_divergences) 0 rows
  in
  {
    sessions;
    images;
    seed;
    divergences;
    warm_hits;
    cold_builds;
    quota_kills = stats.quota_kills;
    rejected = stats.rejected;
    warm_hit_rate = float_of_int warm_hits /. float_of_int (max 1 sessions);
    translate_reduction;
    wall_secs;
    sessions_per_sec = float_of_int sessions /. wall_secs;
    p50_ms = percentile latencies 0.50;
    p95_ms = percentile latencies 0.95;
    p99_ms = percentile latencies 0.99;
    rows;
  }

let render fmt (s : summary) =
  Format.fprintf fmt
    "Translation service load (%d sessions, %d images, seed %d)@." s.sessions
    s.images s.seed;
  Format.fprintf fmt "%-12s %8s %11s %11s %10s %10s  %s@." "image" "sessions"
    "cold_xunit" "warm_xunit" "cold_ms" "warm_ms" "check";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %8d %11d %11d %10.2f %10.2f  %s@." r.r_name
        r.r_sessions r.r_cold_xunits r.r_warm_xunits r.r_mean_cold_ms
        r.r_mean_warm_ms
        (if r.r_divergences = 0 then "ok"
         else Printf.sprintf "%d divergences" r.r_divergences))
    s.rows;
  Format.fprintf fmt
    "warm-hit rate %.1f%% (%d warm / %d cold), translate reduction %.1f%%@."
    (100.0 *. s.warm_hit_rate) s.warm_hits s.cold_builds
    (100.0 *. s.translate_reduction);
  if s.rejected + s.quota_kills > 0 then
    Format.fprintf fmt
      "%d sessions rejected at admission, %d killed by their tenant's fuel \
       quota@."
      s.rejected s.quota_kills;
  Format.fprintf fmt
    "%.1f sessions/sec (%.2fs wall), latency p50 %.2fms p95 %.2fms p99 \
     %.2fms@."
    s.sessions_per_sec s.wall_secs s.p50_ms s.p95_ms s.p99_ms;
  if s.divergences > 0 then
    Format.fprintf fmt "FAIL: %d divergences@." s.divergences
