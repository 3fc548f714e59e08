open Machine

(* Trace-driven out-of-order superscalar timing model (Table 1, left
   column): 4-wide fetch/decode/retire, 128-entry ROB with an equally large
   issue window, oldest-first issue over 4 symmetric function units, g-share
   + BTB + RAS front end with 3-cycle redirects, 32KB L1I/L1D and a 1MB
   unified L2.

   The model is event-ordered: each committed instruction is scheduled
   greedily in program order against bandwidth slots and dependence ready
   times, which realises oldest-first issue without a cycle-by-cycle window
   scan. The fetch stage models 4 instructions per cycle across at most 3
   sequential basic blocks, taken-branch group breaks, I-cache misses and
   redirect latencies; dispatch stalls when the ROB is full; commit is
   4-wide and in order. *)

type params = {
  width : int;
  rob : int;
  depth : int; (* fetch-to-dispatch stages *)
  redirect : int;
  mul_lat : int;
  max_blocks : int; (* sequential basic blocks per fetch cycle *)
  icache_size : int;
  icache_line : int;
  mem : Memhier.cfg;
}

let default_params =
  {
    width = 4;
    rob = 128;
    depth = 3;
    redirect = 3;
    mul_lat = 7;
    max_blocks = 3;
    icache_size = 32 * 1024;
    icache_line = 128;
    mem = Memhier.default_cfg;
  }

type t = {
  p : params;
  pred : Pred.t;
  icache : Cache.t;
  dmem : Memhier.t;
  reg_ready : int array;
  issue : Slots.t;
  commit : Slots.t;
  rob_ring : int array; (* commit cycle of instruction (n - rob) *)
  (* fetch state *)
  mutable fetch_cycle : int;
  mutable fetch_insns : int;
  mutable fetch_blocks : int;
  mutable last_line : int;
  mutable next_fetch_min : int;
  mutable prev_open_bb : bool; (* previous event was a not-taken branch *)
  (* commit state *)
  mutable last_commit : int;
  mutable n : int; (* instructions committed *)
  mutable alpha : int; (* V-ISA instructions retired *)
  mutable start_cycle : int;
}

let create ?(params = default_params) ?(use_ras = true) () =
  {
    p = params;
    pred = Pred.create ~use_ras ();
    icache =
      Cache.create ~name:"L1I" ~size:params.icache_size ~line:params.icache_line
        ~ways:1 ~policy:Cache.Lru;
    dmem = Memhier.create params.mem;
    reg_ready = Array.make Ev.token_count 0;
    issue = Slots.create ~width:params.width;
    commit = Slots.create ~width:params.width;
    rob_ring = Array.make params.rob (-1);
    fetch_cycle = 0;
    fetch_insns = 0;
    fetch_blocks = 0;
    last_line = -1;
    next_fetch_min = 0;
    prev_open_bb = false;
    last_commit = 0;
    n = 0;
    alpha = 0;
    start_cycle = 0;
  }

let new_fetch_group t cycle =
  t.fetch_cycle <- cycle;
  t.fetch_insns <- 0;
  t.fetch_blocks <- 0

let fetch_line t pc =
  let line = pc / t.p.icache_line in
  if line <> t.last_line then begin
    t.last_line <- line;
    if not (Cache.access t.icache pc) then begin
      let penalty =
        if Cache.access t.dmem.Memhier.l2 pc then t.p.mem.l2_lat
        else t.p.mem.l2_lat + t.p.mem.mem_lat
      in
      new_fetch_group t (t.fetch_cycle + penalty)
    end
  end

(* Operand readiness: top-level and [Int.max] (see {!Ildp.ready}). *)
let ready t r acc = if r >= 0 then Int.max acc t.reg_ready.(r) else acc

(* Feed one committed instruction. *)
let feed t (ev : Ev.t) =
  (* ---- fetch ---- *)
  if t.next_fetch_min > t.fetch_cycle then new_fetch_group t t.next_fetch_min;
  fetch_line t ev.pc;
  if t.prev_open_bb then begin
    t.fetch_blocks <- t.fetch_blocks + 1;
    if t.fetch_blocks >= t.p.max_blocks then new_fetch_group t (t.fetch_cycle + 1)
  end;
  t.prev_open_bb <- false;
  if t.fetch_insns >= t.p.width then new_fetch_group t (t.fetch_cycle + 1);
  let f = t.fetch_cycle in
  t.fetch_insns <- t.fetch_insns + 1;
  (* ---- dispatch (ROB capacity) ---- *)
  let rob_slot = t.n mod t.p.rob in
  let d = Int.max (f + t.p.depth) (t.rob_ring.(rob_slot) + 1) in
  (* ---- issue ---- *)
  let r = ready t ev.src1 (ready t ev.src2 (ready t ev.src3 (d + 1))) in
  let issue = Slots.book t.issue r in
  let lat =
    match ev.cls with
    | Alu | Cond_br | Jump | Call | Ret -> 1
    | Mul -> t.p.mul_lat
    | Load -> Memhier.load t.dmem ~pe:0 ev.ea
    | Store -> Memhier.store t.dmem ev.ea
  in
  let complete = issue + lat in
  if ev.dst >= 0 then t.reg_ready.(ev.dst) <- complete;
  if ev.dst2 >= 0 then t.reg_ready.(ev.dst2) <- complete;
  (* ---- commit (in order, width-limited) ---- *)
  let c = Slots.book t.commit (Int.max (complete + 1) t.last_commit) in
  t.last_commit <- c;
  t.rob_ring.(rob_slot) <- c;
  t.n <- t.n + 1;
  t.alpha <- t.alpha + ev.alpha_count;
  (* ---- control outcome drives later fetch ---- *)
  (match Pred.classify t.pred ev with
  | `Seq -> if ev.cls = Cond_br then t.prev_open_bb <- true
  | `Taken_ok -> new_fetch_group t (t.fetch_cycle + 1)
  | `Misfetch -> t.next_fetch_min <- Int.max t.next_fetch_min (f + t.p.redirect)
  | `Mispredict -> t.next_fetch_min <- Int.max t.next_fetch_min (complete + t.p.redirect))

(* Functional warming (SMARTS-style): keep the long-lived history state —
   caches, branch predictor — fed during a sampling controller's fast
   window while the cycle simulation is skipped. See {!Ildp.warm}. *)
let warm t (ev : Ev.t) =
  let line = ev.pc / t.p.icache_line in
  if line <> t.last_line then begin
    t.last_line <- line;
    if not (Cache.access t.icache ev.pc) then
      ignore (Cache.access t.dmem.Memhier.l2 ev.pc : bool)
  end;
  (match ev.cls with
  | Load -> ignore (Memhier.load t.dmem ~pe:0 ev.ea : int)
  | Store -> ignore (Memhier.store t.dmem ev.ea : int)
  | Alu | Cond_br | Jump | Call | Ret | Mul -> ());
  ignore (Pred.classify t.pred ev)

(* Telemetry: drain events are counted live (they are segment-rate), the
   cumulative totals are folded in once per run via [publish_obs]. *)
let c_boundaries = Obs.counter "uarch.ooo.boundaries"
let c_cycles = Obs.counter "uarch.ooo.cycles"
let c_insns = Obs.counter "uarch.ooo.insns"
let c_alpha = Obs.counter "uarch.ooo.alpha"
let c_mispredicts = Obs.counter "uarch.ooo.mispredicts"
let c_misfetches = Obs.counter "uarch.ooo.misfetches"

(* Mode-switch boundary: the pipeline drains and restarts empty. *)
let boundary t =
  Obs.bump c_boundaries 1;
  t.next_fetch_min <- Int.max t.next_fetch_min t.last_commit;
  t.prev_open_bb <- false

let cycles t = Int.max 1 (t.last_commit - t.start_cycle)

let ipc t = float_of_int t.n /. float_of_int (cycles t)

(* V-ISA instructions per cycle — the paper's headline metric. *)
let v_ipc t = float_of_int t.alpha /. float_of_int (cycles t)

(* Fold this model's run totals into the telemetry registry (one call per
   finished simulation; the harness runners own that call). *)
let publish_obs t =
  if Obs.on () then begin
    Obs.bump c_cycles (cycles t);
    Obs.bump c_insns t.n;
    Obs.bump c_alpha t.alpha;
    Obs.bump c_mispredicts t.pred.Pred.mispredicts;
    Obs.bump c_misfetches t.pred.Pred.misfetches
  end
