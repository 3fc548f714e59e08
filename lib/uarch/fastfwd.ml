open Machine

(* Fast-forward timing tier: a SMARTS-style interval-sampling controller.

   {!create} wraps a detailed model's [feed]/[boundary]/[cycles] as a
   sampling sink: each interval opens with a warm-up window that feeds the
   model to reheat its stale state, then a detail window whose measured
   cycle deltas are charged and calibrated, then a fast window that skips
   the model feed entirely; warm-up and fast instructions are back-charged
   at the detail windows' measured rate. With [interval = 0] every
   instruction is a detail instruction, so the controller's total equals
   the wrapped model's cycle count exactly — the sampling-off exactness
   invariant the bench gate asserts. *)

type t = {
  interval : int; (* committed instructions per sampling interval; 0 =
                     every instruction is detailed (sampling off) *)
  warmup : int; (* interval prefix fed to the model but excluded from the
                   fast-window calibration (stale-state reheat) *)
  detail : int; (* calibration window after warm-up *)
  model_feed : Ev.t -> unit;
  model_warm : Ev.t -> unit; (* functional warming for fast-window insns *)
  model_boundary : unit -> unit;
  model_cycles : unit -> int;
  mutable pos : int; (* position inside the current interval *)
  mutable last_model_cycles : int;
  mutable det_insns : int;
  mutable det_cycles : int;
  mutable warm_insns : int;
  mutable fast_insns : int;
  mutable n : int; (* instructions seen (fed or skipped) *)
  mutable alpha : int; (* V-ISA instructions retired *)
}

let default_interval = 3_000
let default_warmup = 150
let default_detail = 300

let create ?(interval = default_interval) ?(warmup = default_warmup)
    ?(detail = default_detail) ?(warm = fun (_ : Ev.t) -> ()) ~feed ~boundary
    ~cycles () =
  if interval < 0 || warmup < 0 || detail <= 0 then
    invalid_arg "Fastfwd.create: negative window";
  if interval > 0 && warmup + detail >= interval then
    invalid_arg "Fastfwd.create: warmup + detail must leave a fast window";
  {
    interval;
    warmup;
    detail;
    model_feed = feed;
    model_warm = warm;
    model_boundary = boundary;
    model_cycles = cycles;
    pos = 0;
    last_model_cycles = cycles ();
    det_insns = 0;
    det_cycles = 0;
    warm_insns = 0;
    fast_insns = 0;
    n = 0;
    alpha = 0;
  }

(* Feed one committed instruction. Warm-up and detail windows both forward
   to the model; only detail deltas are charged and calibrated. Warm-up
   deltas are *discarded*: they contain the model's stale-state reheat (the
   mispredict and miss burst after a skipped window) which the reference
   full-fidelity run never pays, so charging them would bias the estimate
   high — warm-up instructions are instead re-estimated at the detail rate,
   like the fast window. The fast window skips the model feed entirely —
   the expensive part: cache simulation, predictor updates, per-PE
   scheduling — and only counts. *)
let feed t (ev : Ev.t) =
  t.n <- t.n + 1;
  t.alpha <- t.alpha + ev.alpha_count;
  if t.interval = 0 then t.model_feed ev
  else begin
    let p = t.pos in
    if p < t.warmup + t.detail then begin
      t.model_feed ev;
      let c = t.model_cycles () in
      let dc = c - t.last_model_cycles in
      t.last_model_cycles <- c;
      if p >= t.warmup then begin
        t.det_insns <- t.det_insns + 1;
        t.det_cycles <- t.det_cycles + dc
      end
      else t.warm_insns <- t.warm_insns + 1
    end
    else begin
      t.model_warm ev;
      t.fast_insns <- t.fast_insns + 1
    end;
    t.pos <- (if p + 1 >= t.interval then 0 else p + 1)
  end

(* Mode-switch boundary (interpreter re-entry, snapshot warm start): the
   wrapped model drains, and a fast window in flight is cut short so the
   instructions that follow the switch are simulated in full fidelity —
   re-entry segments are exactly where the steady-state calibration is
   least trustworthy. *)
let boundary t =
  t.model_boundary ();
  if t.interval > 0 then begin
    t.pos <- 0;
    t.last_model_cycles <- t.model_cycles ()
  end

(* Cycles the unmeasured instructions (fast window + warm-up) are estimated
   to have cost, at the detail windows' measured rate. Before any detail
   window completes there is nothing to extrapolate from. *)
let fast_est t =
  let unmeasured = t.fast_insns + t.warm_insns in
  if unmeasured = 0 || t.det_insns = 0 then 0
  else
    int_of_float
      (Float.round
         (float_of_int unmeasured
         *. (float_of_int t.det_cycles /. float_of_int t.det_insns)))

let cycles t =
  if t.interval = 0 then Int.max 1 (t.model_cycles ())
  else Int.max 1 (t.det_cycles + fast_est t)

let ipc t = float_of_int t.n /. float_of_int (cycles t)
let v_ipc t = float_of_int t.alpha /. float_of_int (cycles t)

(* Fraction of committed instructions that skipped the detailed model. *)
let skip_ratio t =
  if t.n = 0 then 0.0 else float_of_int t.fast_insns /. float_of_int t.n

(* Telemetry: totals folded in once per run, mirroring the models. *)
let c_insns = Obs.counter "uarch.fastfwd.insns"
let c_fast_insns = Obs.counter "uarch.fastfwd.fast_insns"
let c_det_insns = Obs.counter "uarch.fastfwd.detail_insns"
let c_cycles = Obs.counter "uarch.fastfwd.cycles"

let publish_obs t =
  if Obs.on () then begin
    Obs.bump c_insns t.n;
    Obs.bump c_fast_insns t.fast_insns;
    Obs.bump c_det_insns t.det_insns;
    Obs.bump c_cycles (cycles t)
  end
