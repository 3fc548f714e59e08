(* CI regression checker behind [bench/main.exe --check FILE].

   Dispatches on the baseline's "schema" field:

   - "ildp-dbt-exec-bench/*": re-runs the functional-throughput sweep and
     gates on it — every baseline workload must still exist, still verify
     (matched vs threaded engines byte-identical), and the geomean
     threaded/matched speedup must not regress below [1 - tol] of the
     baseline's. Speedups are ratios of two timings taken on the same
     machine in the same process, so they transfer across hosts in a way
     absolute MIPS never could; per-workload speedups still jitter with
     scheduling, which is why only the geomean is gated and individual
     deviations are reported as notes.
   - "ildp-dbt-timing/*": re-runs the fast-forward timing sweep and gates
     on accuracy — sampled-vs-full V-IPC error within the baseline's
     recorded bound on every workload, and exact agreement with sampling
     off — never on wall-clock speed.
   - "ildp-dbt-bench/*": structural check only — the experiment id set
     recorded in the baseline must equal the harness's current registry
     (catches silently dropped experiments). Wall-clock totals are
     machine-dependent and never gated.

   Both versions of each schema parse: /1 files predate the export
   envelope, /2 files carry it. *)

type outcome = {
  ok : bool;
  lines : string list; (* human-readable report, one finding per line *)
}

let failf ok lines fmt =
  Printf.ksprintf
    (fun s ->
      ok := false;
      lines := ("FAIL " ^ s) :: !lines)
    fmt

let notef lines fmt = Printf.ksprintf (fun s -> lines := ("note " ^ s) :: !lines) fmt
let okf lines fmt = Printf.ksprintf (fun s -> lines := ("ok   " ^ s) :: !lines) fmt

(* ---- shared relative-tolerance gates ----

   Every numeric gate in this file compares a current value against a
   baseline as the relative deviation |current/baseline - 1| versus
   [tol]. [rel_exceeds] is the per-row form (symmetric, note-only at the
   call sites). [rel_direction] classifies the headline geomean, and the
   gate built on it is deliberately asymmetric: falling below the
   baseline by more than [tol] is a CI failure, while exceeding it is
   only ever a note suggesting a baseline refresh — a result that got
   *better* must never fail the build. Non-positive baselines never
   gate. *)

let rel_exceeds ~tol ~base current =
  base > 0.0 && Float.abs ((current /. base) -. 1.0) > tol

type direction = Below | Within | Above

let rel_direction ~tol ~base current =
  if base <= 0.0 then Within
  else if current < base *. (1.0 -. tol) then Below
  else if current > base *. (1.0 +. tol) then Above
  else Within

let gate_geomean ~ok ~lines ~tol ~what ~base current =
  match rel_direction ~tol ~base current with
  | Below ->
    failf ok lines "%s regressed: %.3fx below baseline %.3fx by more than %.0f%%"
      what current base (100.0 *. tol)
  | Above ->
    notef lines
      "%s %.3fx exceeds baseline %.3fx by more than %.0f%%; consider \
       refreshing the baseline"
      what current base (100.0 *. tol)
  | Within ->
    okf lines "%s %.3fx within ±%.0f%% of baseline %.3fx" what current
      (100.0 *. tol) base

(* ---- exec-bench ---- *)

type base_row = { b_name : string; b_speedup : float; b_verified : bool }

let parse_exec_baseline doc =
  let module J = Obs.Json in
  let ( let* ) = Option.bind in
  let* wl = J.member "workloads" doc in
  let* wl = J.to_list wl in
  let* rows =
    List.fold_left
      (fun acc w ->
        let* acc = acc in
        let* b_name = Option.bind (J.member "name" w) J.to_str in
        let* b_speedup = Option.bind (J.member "speedup" w) J.to_float in
        let* b_verified = Option.bind (J.member "verified" w) J.to_bool in
        Some ({ b_name; b_speedup; b_verified } :: acc))
      (Some []) wl
  in
  let* gm = Option.bind (J.member "geomean_speedup" doc) J.to_float in
  Some (List.rev rows, gm)

let check_exec ~tol doc (rows : Throughput.row list) =
  let ok = ref true and lines = ref [] in
  (match parse_exec_baseline doc with
  | None -> failf ok lines "baseline: malformed exec-bench document"
  | Some (base, base_gm) ->
    List.iter
      (fun b ->
        match List.find_opt (fun (r : Throughput.row) -> r.name = b.b_name) rows with
        | None -> failf ok lines "%s: in baseline but not in current sweep" b.b_name
        | Some r ->
          if r.mismatches <> [] then
            failf ok lines "%s: engines disagree: %s" b.b_name
              (String.concat "; " r.mismatches)
          else begin
            let s = Throughput.speedup r in
            if rel_exceeds ~tol ~base:b.b_speedup s then
              notef lines "%s: speedup %.2fx vs baseline %.2fx (>±%.0f%%)"
                b.b_name s b.b_speedup (100.0 *. tol)
          end;
          if not b.b_verified then
            failf ok lines "%s: baseline itself is marked unverified" b.b_name)
      base;
    List.iter
      (fun (r : Throughput.row) ->
        if not (List.exists (fun b -> b.b_name = r.name) base) then
          notef lines "%s: new workload, absent from baseline" r.name)
      rows;
    let gm = Runner.geomean (List.map Throughput.speedup rows) in
    gate_geomean ~ok ~lines ~tol ~what:"geomean speedup" ~base:base_gm gm);
  { ok = !ok; lines = List.rev !lines }

(* ---- fast-forward timing bench ---- *)

(* Gate for BENCH_timing.json: re-runs the fast-forward sweep and fails
   on *accuracy*, not speed — every workload's sampled-vs-full V-IPC
   error must stay within the baseline's recorded [err_bound], and the
   interval=0 controller must agree with the wrapped model exactly (the
   sampling-off lockstep invariant). Wall-clock speedup is compared
   against the baseline as a note only. *)
let check_timing ~tol doc (rows : Fastfwd_bench.row list) =
  let module J = Obs.Json in
  let ok = ref true and lines = ref [] in
  let bound =
    Option.value ~default:Fastfwd_bench.err_bound
      (Option.bind (J.member "err_bound" doc) J.to_float)
  in
  (match Option.bind (J.member "workloads" doc) J.to_list with
  | None | Some [] ->
    failf ok lines "baseline: malformed timing document (no workloads)"
  | Some base ->
    List.iter
      (fun b ->
        let name =
          Option.value ~default:"?" (Option.bind (J.member "name" b) J.to_str)
        in
        match
          List.find_opt (fun (r : Fastfwd_bench.row) -> r.name = name) rows
        with
        | None -> failf ok lines "%s: in baseline but not in current sweep" name
        | Some r ->
          if r.mismatches <> [] then
            failf ok lines "%s: sampled run diverged: %s" name
              (String.concat "; " r.mismatches)
          else begin
            let e = Fastfwd_bench.err r in
            if e > bound then
              failf ok lines "%s: sampled V-IPC error %.1f%% exceeds %.0f%%"
                name (100.0 *. e) (100.0 *. bound);
            if not r.exact_ok then
              failf ok lines
                "%s: interval=0 cycle total diverged from full fidelity" name;
            match Option.bind (J.member "speedup" b) J.to_float with
            | Some bs when rel_exceeds ~tol ~base:bs (Fastfwd_bench.speedup r) ->
              notef lines "%s: speedup %.2fx vs baseline %.2fx (>±%.0f%%)" name
                (Fastfwd_bench.speedup r) bs (100.0 *. tol)
            | _ -> ()
          end;
        match Option.bind (J.member "verified" b) J.to_bool with
        | Some false ->
          failf ok lines "%s: baseline itself is marked unverified" name
        | Some true | None -> ())
      base;
    List.iter
      (fun (r : Fastfwd_bench.row) ->
        if
          not
            (List.exists
               (fun b ->
                 Option.bind (J.member "name" b) J.to_str = Some r.name)
               base)
        then notef lines "%s: new workload, absent from baseline" r.name)
      rows;
    if !ok then
      okf lines "all %d workloads within %.0f%% sampled V-IPC error, exact at \
                 interval=0"
        (List.length rows) (100.0 *. bound));
  { ok = !ok; lines = List.rev !lines }

(* ---- harness bench ---- *)

let check_harness doc ~ids =
  let module J = Obs.Json in
  let ok = ref true and lines = ref [] in
  (match Option.bind (J.member "experiments" doc) J.to_list with
  | None -> failf ok lines "baseline: malformed harness document (no experiments)"
  | Some exps ->
    let base_ids =
      List.filter_map (fun e -> Option.bind (J.member "id" e) J.to_str) exps
    in
    List.iter
      (fun id ->
        if not (List.mem id ids) then
          failf ok lines "experiment %S in baseline but no longer registered" id)
      base_ids;
    List.iter
      (fun id ->
        if not (List.mem id base_ids) then
          notef lines "experiment %S registered but absent from baseline" id)
      ids;
    if !ok then
      okf lines "all %d baseline experiments still registered"
        (List.length base_ids));
  { ok = !ok; lines = List.rev !lines }

(* ---- persist bench ---- *)

(* Structural check of a BENCH_persist.json baseline: every recorded
   workload must have verified (cold and warm runs observationally
   identical) and shown a positive translation-phase reduction. No re-run:
   the numbers are deterministic cost-model units, so a stale-but-green
   baseline cannot mask a live regression — the snapshot-roundtrip CI job
   regenerates and gates the live path. *)
let check_persist doc =
  let module J = Obs.Json in
  let ok = ref true and lines = ref [] in
  (match Option.bind (J.member "workloads" doc) J.to_list with
  | None -> failf ok lines "baseline: malformed persist document (no workloads)"
  | Some [] -> failf ok lines "baseline: persist document has no workloads"
  | Some rows ->
    List.iter
      (fun row ->
        let name =
          Option.value ~default:"?"
            (Option.bind (J.member "name" row) J.to_str)
        in
        (match Option.bind (J.member "verified" row) J.to_bool with
        | Some true -> ()
        | Some false ->
          failf ok lines "%s: baseline marked unverified (cold/warm diverged)"
            name
        | None -> failf ok lines "%s: missing \"verified\" field" name);
        (match
           Option.bind (J.member "translate_reduction" row) J.to_float
         with
        | Some r when r > 0.0 -> ()
        | Some r ->
          failf ok lines "%s: translation-phase reduction %.3f not positive"
            name r
        | None -> failf ok lines "%s: missing \"translate_reduction\" field" name);
        match Option.bind (J.member "fingerprint" row) (J.member "image_digest") with
        | Some _ -> ()
        | None -> failf ok lines "%s: missing fingerprint.image_digest" name)
      rows;
    if !ok then
      okf lines "all %d persist workloads verified with positive reduction"
        (List.length rows));
  { ok = !ok; lines = List.rev !lines }

(* ---- service bench ---- *)

(* Gate for BENCH_service.json: structural invariants on the baseline
   (zero divergences; single-flight means cold builds == images; the
   warm-hit rate is then exactly (sessions - images)/sessions), plus a
   live re-run of the load at the baseline's images/seed whose
   divergence count must be zero and whose translation-work reduction —
   deterministic cost-model units, host-independent — must not regress
   below the baseline. Throughput (sessions/sec) is machine-dependent
   and compared as a note only. *)
let check_service ~tol doc (service_sweep : sessions:int -> images:int ->
                            seed:int -> Service_bench.summary) =
  let module J = Obs.Json in
  let ok = ref true and lines = ref [] in
  let int_f name = Option.bind (J.member name doc) J.to_int in
  let float_f name = Option.bind (J.member name doc) J.to_float in
  (match
     ( int_f "sessions",
       int_f "images",
       int_f "divergences",
       int_f "cold_builds",
       float_f "warm_hit_rate",
       float_f "translate_reduction" )
   with
  | Some sessions, Some images, Some div, Some cold, Some whr, Some red ->
    if div <> 0 then failf ok lines "baseline recorded %d divergences" div;
    if cold <> images then
      failf ok lines
        "baseline cold builds %d != images %d (single-flight violated)" cold
        images;
    let expect =
      float_of_int (sessions - images) /. float_of_int (max 1 sessions)
    in
    if Float.abs (whr -. expect) > 1e-9 then
      failf ok lines
        "baseline warm-hit rate %.4f != single-flight expectation %.4f" whr
        expect;
    if red <= 0.0 then
      failf ok lines "baseline translate reduction %.3f not positive" red;
    let seed = Option.value ~default:1 (int_f "seed") in
    let live = service_sweep ~sessions ~images ~seed in
    if live.Service_bench.divergences <> 0 then
      failf ok lines "live load: %d divergences" live.divergences;
    if live.cold_builds <> live.images then
      failf ok lines "live load: cold builds %d != images %d"
        live.cold_builds live.images;
    if live.warm_hits + live.cold_builds <> live.sessions then
      failf ok lines "live load: %d of %d sessions missing"
        (live.sessions - live.warm_hits - live.cold_builds)
        live.sessions;
    gate_geomean ~ok ~lines ~tol ~what:"service translate reduction"
      ~base:red live.translate_reduction;
    (match float_f "sessions_per_sec" with
    | Some base_sps when rel_exceeds ~tol ~base:base_sps live.sessions_per_sec
      ->
      notef lines
        "throughput %.1f sessions/sec vs baseline %.1f (>±%.0f%%, \
         machine-dependent)"
        live.sessions_per_sec base_sps (100.0 *. tol)
    | _ -> ());
    if !ok then
      okf lines
        "%d live sessions over %d images: 0 divergences, %d warm hits"
        live.sessions live.images live.warm_hits
  | _ -> failf ok lines "baseline: malformed service document");
  { ok = !ok; lines = List.rev !lines }

(* ---- NN inference bench ---- *)

(* Gate for BENCH_nn.json: re-runs the NN sweep and demands every kernel
   still verify (all three accumulator engines byte-identical in state
   and statistics, the straightening backend identical in guest output)
   and — the strongest gate available — that the per-layer checksums the
   kernel prints match the baseline exactly. The checksums fold every
   requantized activation, are deterministic, and are host-independent,
   so any translation regression in the fixed-point matmul path fails
   here even if it happens to agree across engines. Speedups follow the
   exec-bench convention: geomean gated, per-kernel deviations noted. *)
let check_nn ~tol doc (rows : Nn_bench.row list) =
  let module J = Obs.Json in
  let ok = ref true and lines = ref [] in
  (match Option.bind (J.member "workloads" doc) J.to_list with
  | None | Some [] ->
    failf ok lines "baseline: malformed nn document (no workloads)"
  | Some base ->
    List.iter
      (fun b ->
        let name =
          Option.value ~default:"?" (Option.bind (J.member "name" b) J.to_str)
        in
        match List.find_opt (fun (r : Nn_bench.row) -> r.name = name) rows with
        | None -> failf ok lines "%s: in baseline but not in current sweep" name
        | Some r ->
          if r.mismatches <> [] then
            failf ok lines "%s: engines disagree: %s" name
              (String.concat "; " r.mismatches);
          (match
             Option.bind (J.member "checksums" b) J.to_list
             |> Option.map (List.filter_map J.to_int)
           with
          | Some cs when cs <> r.checksums ->
            failf ok lines "%s: checksums [%s] vs baseline [%s]" name
              (String.concat " " (List.map string_of_int r.checksums))
              (String.concat " " (List.map string_of_int cs))
          | Some _ -> ()
          | None -> failf ok lines "%s: baseline has no checksums" name);
          (match Option.bind (J.member "speedup" b) J.to_float with
          | Some bs when rel_exceeds ~tol ~base:bs (Nn_bench.speedup r) ->
            notef lines "%s: speedup %.2fx vs baseline %.2fx (>±%.0f%%)" name
              (Nn_bench.speedup r) bs (100.0 *. tol)
          | _ -> ());
          match Option.bind (J.member "verified" b) J.to_bool with
          | Some false ->
            failf ok lines "%s: baseline itself is marked unverified" name
          | Some true | None -> ())
      base;
    List.iter
      (fun (r : Nn_bench.row) ->
        if
          not
            (List.exists
               (fun b -> Option.bind (J.member "name" b) J.to_str = Some r.name)
               base)
        then notef lines "%s: new kernel, absent from baseline" r.name)
      rows;
    (match Option.bind (J.member "geomean_speedup" doc) J.to_float with
    | Some base_gm ->
      let gm = Runner.geomean (List.map Nn_bench.speedup rows) in
      gate_geomean ~ok ~lines ~tol ~what:"geomean nn speedup" ~base:base_gm gm
    | None -> ());
    if !ok then
      okf lines "all %d NN kernels verified with baseline-exact checksums"
        (List.length rows));
  { ok = !ok; lines = List.rev !lines }

(* ---- stress bench ---- *)

(* Gate for BENCH_stress.json: re-runs the three stress arms live and
   fails unless (a) every arm still agrees with the golden interpreter,
   and (b) every arm still hits its structural target — flush-storm
   forces capacity flushes,
   megamorphic keeps chain-class share at least 4x the gzip reference
   with more dispatch misses, call-tower overflows the dual RAS and
   drags its hit rate below gzip's. Counter magnitudes are deterministic
   but config-sensitive, so they are compared as notes, not failures. *)
let check_stress ~tol doc (s : Stress_bench.sweep_result) =
  let module J = Obs.Json in
  let ok = ref true and lines = ref [] in
  (match Option.bind (J.member "arms" doc) J.to_list with
  | None | Some [] ->
    failf ok lines "baseline: malformed stress document (no arms)"
  | Some base ->
    List.iter
      (fun arm ->
        let name = Stress.arm_name arm in
        match
          Option.bind
            (Option.bind (J.member "targets" doc) (J.member name))
            J.to_bool
        with
        | Some true -> ()
        | Some false ->
          failf ok lines "baseline itself records target %S missed" name
        | None -> failf ok lines "baseline: no target record for %S" name)
      Stress.all_arms;
    List.iter
      (fun b ->
        let name =
          Option.value ~default:"?" (Option.bind (J.member "name" b) J.to_str)
        in
        match
          List.find_opt (fun (r : Stress_bench.row) -> r.s_name = name) s.arms
        with
        | None -> failf ok lines "%s: in baseline but not in current sweep" name
        | Some r ->
          if r.s_mismatches <> [] then
            failf ok lines "%s: diverged from golden interpreter: %s" name
              (String.concat "; " r.s_mismatches);
          (match Option.bind (J.member "v_insns" b) J.to_int with
          | Some bv when bv <> r.s_retired ->
            notef lines "%s: retired %d vs baseline %d" name r.s_retired bv
          | _ -> ());
          match Option.bind (J.member "chain_share" b) J.to_float with
          | Some bs
            when rel_exceeds ~tol ~base:bs r.s_chain_share && bs > 0.01 ->
            notef lines "%s: chain share %.1f%% vs baseline %.1f%%" name
              (100.0 *. r.s_chain_share) (100.0 *. bs)
          | _ -> ())
      base;
    List.iter
      (fun arm ->
        if not (Stress_bench.target_met s arm) then
          failf ok lines "live run: %s no longer hits its target"
            (Stress.arm_name arm))
      Stress.all_arms;
    if s.reference.s_mismatches <> [] then
      failf ok lines "reference workload diverged: %s"
        (String.concat "; " s.reference.s_mismatches);
    if !ok then
      okf lines
        "all %d stress arms verified against the interpreter, all targets hit"
        (List.length s.arms));
  { ok = !ok; lines = List.rev !lines }

(* ---- dispatch ---- *)

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Runs the appropriate check for [path]. The [*_sweep] arguments produce
   the current rows on demand (only the matching branch pays for its
   sweep); [ids] is the current experiment registry. *)
let run ~tol ~ids ~sweep ~timing_sweep ~service_sweep ~nn_sweep ~stress_sweep
    path =
  match Obs.Json.parse_file path with
  | Error e -> { ok = false; lines = [ Printf.sprintf "FAIL %s: %s" path e ] }
  | Ok doc -> (
    match Obs.Envelope.schema_of doc with
    | Some s when prefixed "ildp-dbt-exec-bench/" s -> check_exec ~tol doc (sweep ())
    | Some s when prefixed "ildp-dbt-timing/" s ->
      check_timing ~tol doc (timing_sweep ())
    | Some s when prefixed "ildp-dbt-bench/" s -> check_harness doc ~ids
    | Some s when prefixed "ildp-dbt-persist/" s -> check_persist doc
    | Some s when prefixed "ildp-dbt-service/" s ->
      check_service ~tol doc service_sweep
    | Some s when prefixed "ildp-dbt-nn/" s -> check_nn ~tol doc (nn_sweep ())
    | Some s when prefixed "ildp-dbt-stress/" s ->
      check_stress ~tol doc (stress_sweep ())
    | Some s -> { ok = false; lines = [ Printf.sprintf "FAIL unknown schema %S" s ] }
    | None -> { ok = false; lines = [ "FAIL baseline has no \"schema\" field" ] })
