(* ildp_serve: run the translation service as a self-driving daemon.

     ildp_serve                            # 50 sessions over 4 images
     ildp_serve --sessions 1000 --jobs 8   # heavier load
     ildp_serve --fuel-quota 2000000       # demonstrate clean quota kills
     ildp_serve --spill-dir /tmp/snap      # registry survives restarts

   The daemon admits every session through per-tenant quotas and bounded
   backpressure, warm-starts all but the first session per image from the
   shared snapshot registry, cross-verifies every completed session
   against a serial reference run, and drains in-flight sessions on
   shutdown. Exit status: 0 clean; 1 on any divergence, or (under
   --require-warm-hits) when no session warm-started. A plain run (no
   --fuel-quota, no --spill-dir) also exits 1 unless every session
   completed, exactly one per image built cold (single-flight), and warm
   sessions saved at least [Service_bench.reduction_floor] of the cold
   translate units. *)

open Cmdliner

let run sessions images tenants jobs capacity scale seed fuel fuel_quota
    spill_dir telemetry_json require_warm_hits quiet =
  Option.iter (fun _ -> Obs.set_enabled true) telemetry_json;
  let fmt = Format.std_formatter in
  if not quiet then
    Format.fprintf fmt "ildp_serve: %d sessions, %d images, %d tenants@."
      sessions images tenants;
  let progress = ref 0 in
  let on_progress n =
    progress := !progress + n;
    if (not quiet) && !progress mod 200 = 0 then
      Format.fprintf fmt "  ... %d/%d sessions done@." !progress sessions
  in
  let s =
    Harness.Service_bench.run_load ~sessions ~images ~tenants ~scale ~fuel
      ?tenant_fuel:fuel_quota ?jobs ~capacity ?spill_dir ~seed ~on_progress ()
  in
  Harness.Service_bench.render fmt s;
  Format.pp_print_flush fmt ();
  Option.iter
    (fun path ->
      let snap = Obs.collect () in
      Obs.Envelope.write_telemetry path ~jobs:(Option.value ~default:0 jobs)
        snap;
      Printf.printf "wrote %s\n" path)
    telemetry_json;
  if s.divergences > 0 then begin
    prerr_endline "ildp_serve: sessions diverged from the serial reference";
    exit 1
  end;
  (* With a binding fuel quota, a killed builder legitimately makes some
     other session rebuild; with a spill dir, a previous daemon's
     publishes legitimately make cold builds 0. Gate single-flight, and
     the completion count and reduction that follow from it, only in the
     plain configuration. *)
  if fuel_quota = None && spill_dir = None then begin
    if s.cold_builds <> s.images then begin
      Printf.eprintf "ildp_serve: %d cold builds for %d images \
                      (single-flight violated)\n"
        s.cold_builds s.images;
      exit 1
    end;
    if s.warm_hits + s.cold_builds <> s.sessions then begin
      Printf.eprintf "ildp_serve: %d of %d sessions did not complete\n"
        (s.sessions - s.warm_hits - s.cold_builds)
        s.sessions;
      exit 1
    end;
    if s.warm_hits > 0
       && s.translate_reduction < Harness.Service_bench.reduction_floor
    then begin
      Printf.eprintf
        "ildp_serve: translate reduction %.1f%% below the %.1f%% floor\n"
        (100.0 *. s.translate_reduction)
        (100.0 *. Harness.Service_bench.reduction_floor);
      exit 1
    end
  end;
  if require_warm_hits && s.warm_hits = 0 then begin
    prerr_endline "ildp_serve: no session warm-started from the registry";
    exit 1
  end;
  if not quiet then Format.fprintf fmt "drained cleanly@."

let sessions =
  Arg.(value & opt int 50 & info [ "sessions" ] ~docv:"N"
       ~doc:"Guest sessions to admit.")

let images =
  Arg.(value & opt int 4 & info [ "images" ] ~docv:"N"
       ~doc:"Distinct workload images (first $(docv) of the suite).")

let tenants =
  Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N"
       ~doc:"Tenants sharing the service, round-robin over sessions.")

let jobs =
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N"
       ~doc:"Worker domains (default: recommended domain count).")

let capacity =
  Arg.(value & opt int 32 & info [ "capacity" ] ~docv:"N"
       ~doc:"Max admitted-but-unfinished sessions (admission backpressure).")

let scale =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N"
       ~doc:"Workload scale factor.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
       ~doc:"Arrival-order shuffle seed.")

let fuel =
  Arg.(value & opt int Harness.Service_bench.default_fuel
       & info [ "fuel" ] ~docv:"N" ~doc:"Per-session fuel cap.")

let fuel_quota =
  Arg.(value & opt (some int) None & info [ "fuel-quota" ] ~docv:"N"
       ~doc:"Total per-tenant fuel quota; sessions that exhaust it are \
             killed cleanly mid-run (reported, never a crash).")

let spill_dir =
  Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR"
       ~doc:"Spill published snapshots to $(docv) and consult it on cache \
             misses: a restarted daemon warm-starts from the previous \
             run's publishes.")

let telemetry_json =
  Arg.(value & opt (some string) None
       & info [ "telemetry-json" ] ~docv:"FILE"
       ~doc:"Enable telemetry; write service counters/histograms as JSON.")

let require_warm_hits =
  Arg.(value & flag & info [ "require-warm-hits" ]
       ~doc:"Exit 1 unless at least one session warm-started.")

let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Summary only.")

let cmd =
  let info =
    Cmd.info "ildp_serve"
      ~doc:"translation-as-a-service daemon over the warm-cache registry"
  in
  Cmd.v info
    Term.(
      const run $ sessions $ images $ tenants $ jobs $ capacity $ scale $ seed
      $ fuel $ fuel_quota $ spill_dir $ telemetry_json
      $ require_warm_hits $ quiet)

let () = exit (Cmd.eval cmd)
