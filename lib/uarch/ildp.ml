open Machine

(* Trace-driven ILDP distributed-microarchitecture timing model (Table 1,
   right column, and Section 1.1):

   - 4-wide fetch/decode front end shared in structure with the superscalar
     model (g-share, BTB, dual-address-RAS outcomes, I-cache, 3-cycle
     redirects);
   - instructions are steered by accumulator number to one of 4/6/8
     processing elements; a strand-starting instruction picks the
     least-loaded PE; accumulator-less instructions likewise;
   - each PE issues at most one instruction per cycle, in order, from the
     head of its FIFO; accumulator values are PE-local, while GPR values
     produced on another PE incur the global communication latency;
   - the L1 D-cache is replicated per PE (stores broadcast);
   - a 128-entry ROB commits up to 4 instructions per cycle in order.

   Modified-ISA architected-file updates ([lazy_dst2] on events) drain off
   the critical path: a consumer reading one pays the communication latency
   on top of completion. *)

type params = {
  n_pe : int;
  comm : int; (* inter-PE global communication latency, cycles *)
  fifo_depth : int;
  width : int; (* fetch/decode/retire bandwidth *)
  rob : int;
  depth : int;
  redirect : int;
  mul_lat : int;
  max_blocks : int;
  icache_size : int;
  icache_line : int;
  mem : Memhier.cfg; (* per-PE replicated L1 + shared L2 *)
}

let default_params =
  {
    n_pe = 8;
    comm = 0;
    fifo_depth = 16;
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
  reg_pe : int array; (* PE that produced each register token *)
  reg_lazy : bool array; (* value drains lazily (architected-file update) *)
  pe_last_issue : int array;
  pe_fifo : int array array; (* per-PE ring of issue cycles *)
  pe_count : int array; (* instructions ever steered to this PE *)
  pe_of_acc : int array;
  commit : Slots.t;
  rob_ring : int array;
  mutable fetch_cycle : int;
  mutable fetch_insns : int;
  mutable fetch_blocks : int;
  mutable last_line : int;
  mutable next_fetch_min : int;
  mutable prev_open_bb : bool;
  mutable last_commit : int;
  mutable n : int;
  mutable alpha : int;
  mutable comm_stalls : int; (* instructions delayed by remote operands *)
  mutable comm_cycles : int; (* total cycles of such delay *)
}

let create ?(params = default_params) ?(use_ras = true) () =
  if params.n_pe < 1 then
    invalid_arg
      (Printf.sprintf "Ildp.create: n_pe must be at least 1, got %d" params.n_pe);
  {
    p = params;
    pred = Pred.create ~use_ras ();
    icache =
      Cache.create ~name:"L1I" ~size:params.icache_size ~line:params.icache_line
        ~ways:1 ~policy:Cache.Lru;
    dmem = Memhier.create ~replicas:params.n_pe params.mem;
    reg_ready = Array.make Ev.token_count 0;
    reg_pe = Array.make Ev.token_count 0;
    reg_lazy = Array.make Ev.token_count false;
    pe_last_issue = Array.make params.n_pe 0;
    pe_fifo = Array.init params.n_pe (fun _ -> Array.make params.fifo_depth (-1));
    pe_count = Array.make params.n_pe 0;
    pe_of_acc = Array.make 8 0;
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
    comm_stalls = 0;
    comm_cycles = 0;
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

(* Least-loaded PE: fewest in-flight by last-issue horizon, with steered
   counts as tie-break, then the lowest PE number. *)
let least_loaded_scan t =
  let best = ref 0 in
  for pe = 1 to t.p.n_pe - 1 do
    if
      t.pe_last_issue.(pe) < t.pe_last_issue.(!best)
      || (t.pe_last_issue.(pe) = t.pe_last_issue.(!best)
          && t.pe_count.(pe) < t.pe_count.(!best))
    then best := pe
  done;
  !best

(* The same order as packed keys [last_issue lsl 36 lor count lsl 4 lor pe]
   under a branch-free minimum: the scan's comparisons are unpredictable
   branches. A key needs the PE number in 4 bits, the count in 32 and the
   issue cycle in 26 (62 bits); no issue cycle exceeds [last_commit] and
   no count exceeds [n], so past those bounds the scan decides. *)
let least_loaded t =
  let n_pe = t.p.n_pe in
  if n_pe > 16 || t.last_commit >= 1 lsl 26 || t.n >= 1 lsl 31 then
    least_loaded_scan t
  else begin
    let issue = t.pe_last_issue and count = t.pe_count in
    let best = ref ((issue.(0) lsl 36) lor (count.(0) lsl 4)) in
    for pe = 1 to n_pe - 1 do
      let k =
        (Array.unsafe_get issue pe lsl 36)
        lor (Array.unsafe_get count pe lsl 4)
        lor pe
      in
      (* keys are below 2^62, so [d] cannot overflow and its sign is
         bit 62 *)
      let d = k - !best in
      best := !best + (d land (d asr 62))
    done;
    !best land 15
  end

(* Steering for a strand-starting instruction: accumulator renaming prefers
   the PE that produced a GPR source value (the strand's input stays local,
   which is what lets the machine tolerate global wire latency), unless that
   PE is clearly more loaded than the best alternative. *)
let pick_pe t (ev : Ev.t) =
  let ll = least_loaded t in
  if t.p.comm = 0 then ll
  else begin
    let affinity tok =
      if tok >= 0 && tok < 64 then Some t.reg_pe.(tok) else None
    in
    match
      (match affinity ev.src1 with Some p -> Some p | None -> affinity ev.src2)
    with
    | Some p when t.pe_last_issue.(p) <= t.pe_last_issue.(ll) + (2 * t.p.comm) -> p
    | _ -> ll
  end

(* Operand readiness as seen from [pe]: a GPR produced on another PE, or
   one draining lazily to the architected file, pays the communication
   latency. Top-level rather than closures in [feed], and [Int.max] rather
   than the polymorphic [max], so the per-event path allocates nothing and
   calls no generic compare. *)
let ready t pe tok acc =
  if tok < 0 then acc
  else begin
    let base = t.reg_ready.(tok) in
    let remote = t.reg_pe.(tok) <> pe || t.reg_lazy.(tok) in
    Int.max acc (if remote then base + t.p.comm else base)
  end

(* The same readiness with every producer local (zero communication). *)
let ready_local t tok acc = if tok < 0 then acc else Int.max acc t.reg_ready.(tok)

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
  (* ---- steer ---- *)
  let pe =
    if ev.acc < 0 then least_loaded t
    else if ev.strand_start then begin
      let pe = pick_pe t ev in
      t.pe_of_acc.(ev.acc) <- pe;
      pe
    end
    else t.pe_of_acc.(ev.acc)
  in
  t.pe_count.(pe) <- t.pe_count.(pe) + 1;
  (* ---- dispatch: ROB and FIFO capacity ---- *)
  let rob_slot = t.n mod t.p.rob in
  let fifo = t.pe_fifo.(pe) in
  let fifo_slot = t.pe_count.(pe) mod t.p.fifo_depth in
  let d =
    Int.max (f + t.p.depth)
      (Int.max (t.rob_ring.(rob_slot) + 1) (fifo.(fifo_slot) + 1))
  in
  (* ---- operand readiness (communication latency for remote GPRs) ---- *)
  let r0 =
    ready_local t ev.src1 (ready_local t ev.src2 (ready_local t ev.src3 (d + 1)))
  in
  let r =
    if t.p.comm = 0 then r0
    else ready t pe ev.src1 (ready t pe ev.src2 (ready t pe ev.src3 (d + 1)))
  in
  (* ---- in-order single-issue per PE ---- *)
  let issue = Int.max r (t.pe_last_issue.(pe) + 1) in
  let issue0 = Int.max r0 (t.pe_last_issue.(pe) + 1) in
  if issue > issue0 then begin
    t.comm_stalls <- t.comm_stalls + 1;
    t.comm_cycles <- t.comm_cycles + (issue - issue0)
  end;
  t.pe_last_issue.(pe) <- issue;
  fifo.(fifo_slot) <- issue;
  let lat =
    match ev.cls with
    | Alu | Cond_br | Jump | Call | Ret -> 1
    | Mul -> t.p.mul_lat
    | Load -> Memhier.load t.dmem ~pe ev.ea
    | Store -> Memhier.store t.dmem ev.ea
  in
  let complete = issue + lat in
  if ev.dst >= 0 then begin
    t.reg_ready.(ev.dst) <- complete;
    t.reg_pe.(ev.dst) <- pe;
    t.reg_lazy.(ev.dst) <- false
  end;
  if ev.dst2 >= 0 then begin
    t.reg_ready.(ev.dst2) <- complete;
    t.reg_pe.(ev.dst2) <- pe;
    t.reg_lazy.(ev.dst2) <- ev.lazy_dst2
  end;
  (* ---- commit ---- *)
  let c = Slots.book t.commit (Int.max (complete + 1) t.last_commit) in
  t.last_commit <- c;
  t.rob_ring.(rob_slot) <- c;
  t.n <- t.n + 1;
  t.alpha <- t.alpha + ev.alpha_count;
  (* ---- control ---- *)
  match Pred.classify t.pred ev with
  | `Seq -> if ev.cls = Cond_br then t.prev_open_bb <- true
  | `Taken_ok -> new_fetch_group t (t.fetch_cycle + 1)
  | `Misfetch -> t.next_fetch_min <- Int.max t.next_fetch_min (f + t.p.redirect)
  | `Mispredict -> t.next_fetch_min <- Int.max t.next_fetch_min (complete + t.p.redirect)

(* Functional warming (SMARTS-style): a sampling controller's fast window
   skips the cycle simulation but must keep the long-lived history state —
   I-cache, D-cache hierarchy, branch predictor, accumulator→PE steering
   map — seeing every instruction, or the next detail window measures cold
   state the reference run never has. No cycle counter moves here; only
   structures whose contents persist across thousands of instructions. *)
let warm t (ev : Ev.t) =
  let line = ev.pc / t.p.icache_line in
  if line <> t.last_line then begin
    t.last_line <- line;
    if not (Cache.access t.icache ev.pc) then
      ignore (Cache.access t.dmem.Memhier.l2 ev.pc : bool)
  end;
  let pe =
    if ev.acc < 0 then 0
    else if ev.strand_start then begin
      let pe = pick_pe t ev in
      t.pe_of_acc.(ev.acc) <- pe;
      pe
    end
    else t.pe_of_acc.(ev.acc)
  in
  (match ev.cls with
  | Load -> ignore (Memhier.load t.dmem ~pe ev.ea : int)
  | Store -> ignore (Memhier.store t.dmem ev.ea : int)
  | Alu | Cond_br | Jump | Call | Ret | Mul -> ());
  ignore (Pred.classify t.pred ev)

(* Telemetry (cf. Ooo): drains live, totals folded in via [publish_obs]. *)
let c_boundaries = Obs.counter "uarch.ildp.boundaries"
let c_cycles = Obs.counter "uarch.ildp.cycles"
let c_insns = Obs.counter "uarch.ildp.insns"
let c_alpha = Obs.counter "uarch.ildp.alpha"
let c_mispredicts = Obs.counter "uarch.ildp.mispredicts"
let c_misfetches = Obs.counter "uarch.ildp.misfetches"
let c_comm_stalls = Obs.counter "uarch.ildp.comm_stalls"
let c_comm_cycles = Obs.counter "uarch.ildp.comm_cycles"

let boundary t =
  Obs.bump c_boundaries 1;
  t.next_fetch_min <- Int.max t.next_fetch_min t.last_commit;
  t.prev_open_bb <- false

let cycles t = Int.max 1 t.last_commit

(* Native I-ISA instructions per cycle (last bar of Fig. 8). *)
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
    Obs.bump c_misfetches t.pred.Pred.misfetches;
    Obs.bump c_comm_stalls t.comm_stalls;
    Obs.bump c_comm_cycles t.comm_cycles
  end
