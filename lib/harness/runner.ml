(* Shared experiment runners.

   Each runner executes one workload under one system configuration and
   collects the statistics the experiments need. Results are memoised per
   (workload, configuration, scale) so experiments that share a
   configuration (e.g. the Fig. 6 and Fig. 8 baselines) reuse runs within
   one process.

   The memo tables are domain-safe and single-flight (Taskpool.Memo): a
   run requested concurrently by several experiments is simulated exactly
   once, which is what lets the plan/prewarm phase below warm every cache
   from a Pool of worker domains. Individual simulations share no mutable
   state — each run builds its own interpreter, VM, translation cache and
   timing model — so runs are independent jobs, exactly the trace-driven
   SimpleScalar-style methodology shape. *)

type timing = {
  cycles : int;
  insns : int; (* instructions committed by the timing model *)
  alpha : int; (* V-ISA instructions those represent *)
  v_ipc : float;
  ipc : float;
  mpki : float; (* mispredictions per 1000 committed instructions *)
  misfetch_pki : float;
  mispredicts : int;
  misfetches : int;
}

let fuel = 100_000_000

(* Telemetry: one span per runner kind (whole-simulation wall clock, as
   seen by the worker domain that ran it) and a count of raw — i.e.
   memo-missed — runs. Each raw run also folds its VM/timing-model stat
   structs into the registry, so registry totals are per unique
   simulation: the Memo tables are single-flight, which is what makes
   collected counts identical at any [--jobs] setting. *)
let sp_orig = Obs.span "run.original"
let sp_straight = Obs.span "run.straight"
let sp_acc = Obs.span "run.acc"
let c_orig = Obs.counter "runner.runs.original"
let c_straight = Obs.counter "runner.runs.straight"
let c_acc = Obs.counter "runner.runs.acc"

let timing_of_ooo (m : Uarch.Ooo.t) =
  {
    cycles = Uarch.Ooo.cycles m;
    insns = m.n;
    alpha = m.alpha;
    v_ipc = Uarch.Ooo.v_ipc m;
    ipc = Uarch.Ooo.ipc m;
    mpki = Uarch.Pred.mpki m.pred ~insns:m.n;
    misfetch_pki =
      1000.0 *. float_of_int m.pred.misfetches /. float_of_int (max 1 m.n);
    mispredicts = m.pred.mispredicts;
    misfetches = m.pred.misfetches;
  }

let timing_of_ildp (m : Uarch.Ildp.t) =
  {
    cycles = Uarch.Ildp.cycles m;
    insns = m.n;
    alpha = m.alpha;
    v_ipc = Uarch.Ildp.v_ipc m;
    ipc = Uarch.Ildp.ipc m;
    mpki = Uarch.Pred.mpki m.pred ~insns:m.n;
    misfetch_pki =
      1000.0 *. float_of_int m.pred.misfetches /. float_of_int (max 1 m.n);
    mispredicts = m.pred.mispredicts;
    misfetches = m.pred.misfetches;
  }

(* ---------- original (native Alpha on the superscalar model) ---------- *)

let original_raw ~use_ras w ~scale =
  Obs.with_span sp_orig @@ fun () ->
  Obs.bump c_orig 1;
  let prog = Workloads.program ~scale w in
  let st = Alpha.Interp.create prog in
  let m = Uarch.Ooo.create ~use_ras () in
  (match Alpha.Interp.run_ev ~fuel st ~sink:(Uarch.Ooo.feed m) with
  | Alpha.Interp.Exit _ -> ()
  | Fault tr ->
    failwith (Format.asprintf "%s (original): %a" w.name Alpha.Interp.pp_trap tr)
  | Out_of_fuel -> failwith (w.name ^ ": out of fuel"));
  Uarch.Ooo.publish_obs m;
  timing_of_ooo m

(* ---------- code-straightening-only DBT on the superscalar model ------- *)

type straight_out = {
  s_t : timing;
  s_i_exec : int; (* translated instructions executed *)
  s_alpha : int; (* V-ISA instructions retired in translated mode *)
  s_interp : int; (* instructions interpreted instead *)
  s_frags : int;
  s_dbt_work : float;
}

let straight_raw ~chaining w ~scale =
  Obs.with_span sp_straight @@ fun () ->
  Obs.bump c_straight 1;
  let prog = Workloads.program ~scale w in
  let cfg = { Core.Config.default with chaining } in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Straight_only prog in
  let m = Uarch.Ooo.create () in
  (match
     Core.Vm.run ~sink:(Uarch.Ooo.feed m)
       ~boundary:(fun () -> Uarch.Ooo.boundary m)
       ~fuel vm
   with
  | Core.Vm.Exit _ -> ()
  | Fault tr ->
    failwith (Format.asprintf "%s (straight): %a" w.name Alpha.Interp.pp_trap tr)
  | Out_of_fuel -> failwith (w.name ^ ": out of fuel"));
  Core.Vm.publish_obs vm;
  Uarch.Ooo.publish_obs m;
  let st = Core.Vm.engine_stats vm in
  let ctx = Option.get (Core.Vm.straight_ctx vm) in
  {
    s_t = timing_of_ooo m;
    s_i_exec = st.i_exec;
    s_alpha = st.alpha_retired;
    s_interp = vm.interp_insns;
    s_frags = List.length (Core.Tcache.Straight.fragments ctx.tc);
    s_dbt_work = Core.Cost.per_translated_insn ctx.cost;
  }

(* ---------- accumulator-ISA DBT, optionally on the ILDP model ---------- *)

type acc_out = {
  a_t : timing option;
  a_i_exec : int;
  a_alpha : int;
  a_interp : int;
  a_copies : int; (* copy-class instructions executed *)
  a_chain : int; (* chain-class instructions executed *)
  a_i_bytes : int; (* static translated bytes *)
  a_v_bytes : int; (* static V-ISA bytes of distinct translated insns *)
  a_dbt_work : float;
  a_frags : int;
  a_spills : int;
  a_splits : int;
  a_dras_hit : float;
  a_cat_dyn : float array; (* dynamic usage-category distribution *)
}

let acc_raw ?(isa = Core.Config.Modified) ?(chaining = Core.Config.Sw_pred_ras)
    ?(n_accs = 4) ?(fuse_mem = false) ?(stop_at_translated = false)
    ?(max_superblock = 200) ?(hot_threshold = 50) ?ildp w ~scale =
  Obs.with_span sp_acc @@ fun () ->
  Obs.bump c_acc 1;
  let prog = Workloads.program ~scale w in
  let cfg =
    {
      Core.Config.default with
      isa;
      chaining;
      n_accs;
      fuse_mem;
      stop_at_translated;
      max_superblock;
      hot_threshold;
    }
  in
  let vm = Core.Vm.create ~cfg ~kind:Core.Vm.Acc prog in
  let m = Option.map (fun params -> Uarch.Ildp.create ~params ()) ildp in
  let sink = Option.map (fun m -> Uarch.Ildp.feed m) m in
  let boundary = Option.map (fun m () -> Uarch.Ildp.boundary m) m in
  (match Core.Vm.run ?sink ?boundary ~fuel vm with
  | Core.Vm.Exit _ -> ()
  | Fault tr ->
    failwith (Format.asprintf "%s (acc): %a" w.name Alpha.Interp.pp_trap tr)
  | Out_of_fuel -> failwith (w.name ^ ": out of fuel"));
  Core.Vm.publish_obs vm;
  Option.iter Uarch.Ildp.publish_obs m;
  let st = Core.Vm.engine_stats vm in
  let ctx = Option.get (Core.Vm.acc_ctx vm) in
  let frags = Core.Tcache.Acc.fragments ctx.tc in
  (* dynamic usage-category distribution: per-fragment static counts
     weighted by execution counts *)
  let cat = Array.make Core.Tcache.n_categories 0.0 in
  List.iter
    (fun (f : Core.Tcache.frag) ->
      Array.iteri
        (fun i c -> cat.(i) <- cat.(i) +. float_of_int (c * f.exec_count))
        f.cat_count)
    frags;
  let total_cat = Array.fold_left ( +. ) 0.0 cat in
  let cat_dyn =
    Array.map (fun c -> if total_cat > 0.0 then c /. total_cat else 0.0) cat
  in
  {
    a_t = Option.map timing_of_ildp m;
    a_i_exec = st.i_exec;
    a_alpha = st.alpha_retired;
    a_interp = vm.interp_insns;
    a_copies = st.by_class.(1);
    a_chain = st.by_class.(2);
    a_i_bytes = Core.Tcache.Acc.total_i_bytes ctx.tc;
    a_v_bytes = 4 * Hashtbl.length ctx.unique_vpcs;
    a_dbt_work = Core.Cost.per_translated_insn ctx.cost;
    a_frags = List.length frags;
    a_spills = ctx.n_spills;
    a_splits = ctx.n_splits;
    a_dras_hit =
      (let h = st.ret_dras_hits and m' = st.ret_dras_misses in
       if h + m' = 0 then 1.0 else float_of_int h /. float_of_int (h + m'));
    a_cat_dyn = cat_dyn;
  }

(* ---------- memoisation ---------- *)

(* The acc key is a structural record, not a formatted string: the old
   Printf.sprintf key ran on every lookup and was collision-prone on '/'
   in workload names. The ILDP parameters enter via the projection that
   actually distinguishes configurations in this study (PE count,
   communication latency, L1 size), matching the experiment sweeps. *)
type ildp_key = { k_n_pe : int; k_comm : int; k_l1 : int }

type acc_key = {
  k_name : string;
  k_isa : Core.Config.isa;
  k_chaining : Core.Config.chaining;
  k_n_accs : int;
  k_fuse_mem : bool;
  k_stop : bool;
  k_max_sb : int;
  k_hot : int;
  k_ildp : ildp_key option;
  k_scale : int;
}

let ildp_key_of (p : Uarch.Ildp.params) =
  { k_n_pe = p.n_pe; k_comm = p.comm; k_l1 = p.mem.l1_size }

let acc_key_of ~isa ~chaining ~n_accs ~fuse_mem ~stop_at_translated
    ~max_superblock ~hot_threshold ~ildp ~scale (w : Workloads.t) =
  {
    k_name = w.name;
    k_isa = isa;
    k_chaining = chaining;
    k_n_accs = n_accs;
    k_fuse_mem = fuse_mem;
    k_stop = stop_at_translated;
    k_max_sb = max_superblock;
    k_hot = hot_threshold;
    k_ildp = Option.map ildp_key_of ildp;
    k_scale = scale;
  }

module Memo = Taskpool.Memo

let orig_cache : (string * bool * int, timing) Memo.t = Memo.create 64
let straight_cache : (string * Core.Config.chaining * int, straight_out) Memo.t =
  Memo.create 64
let acc_cache : (acc_key, acc_out) Memo.t = Memo.create 64

let reset_caches () =
  Memo.clear orig_cache;
  Memo.clear straight_cache;
  Memo.clear acc_cache

let original ?(use_ras = true) ?(scale = 1) w =
  Memo.find_or_compute orig_cache (w.Workloads.name, use_ras, scale) (fun () ->
      original_raw ~use_ras w ~scale)

let straight ?(chaining = Core.Config.Sw_pred_ras) ?(scale = 1) w =
  Memo.find_or_compute straight_cache (w.Workloads.name, chaining, scale)
    (fun () -> straight_raw ~chaining w ~scale)

let acc ?(isa = Core.Config.Modified) ?(chaining = Core.Config.Sw_pred_ras)
    ?(n_accs = 4) ?(fuse_mem = false) ?(stop_at_translated = false)
    ?(max_superblock = 200) ?(hot_threshold = 50) ?ildp ?(scale = 1) w =
  let key =
    acc_key_of ~isa ~chaining ~n_accs ~fuse_mem ~stop_at_translated
      ~max_superblock ~hot_threshold ~ildp ~scale w
  in
  Memo.find_or_compute acc_cache key (fun () ->
      acc_raw ~isa ~chaining ~n_accs ~fuse_mem ~stop_at_translated
        ~max_superblock ~hot_threshold ?ildp w ~scale)

(* ---------- run requests (the experiments' plan phase) ---------- *)

(* A [req] names one memoisable simulation run. Experiments declare their
   full run set as a plan; [prewarm] dedups the plan and warms every cache
   from the worker pool, after which rendering hits only warm caches and
   is byte-identical at any job count. *)

type req =
  | R_orig of { w : Workloads.t; use_ras : bool; scale : int }
  | R_straight of { w : Workloads.t; chaining : Core.Config.chaining; scale : int }
  | R_acc of {
      w : Workloads.t;
      isa : Core.Config.isa;
      chaining : Core.Config.chaining;
      n_accs : int;
      fuse_mem : bool;
      stop_at_translated : bool;
      max_superblock : int;
      hot_threshold : int;
      ildp : Uarch.Ildp.params option;
      scale : int;
    }

let req_original ?(use_ras = true) ?(scale = 1) w = R_orig { w; use_ras; scale }

let req_straight ?(chaining = Core.Config.Sw_pred_ras) ?(scale = 1) w =
  R_straight { w; chaining; scale }

let req_acc ?(isa = Core.Config.Modified) ?(chaining = Core.Config.Sw_pred_ras)
    ?(n_accs = 4) ?(fuse_mem = false) ?(stop_at_translated = false)
    ?(max_superblock = 200) ?(hot_threshold = 50) ?ildp ?(scale = 1) w =
  R_acc
    {
      w;
      isa;
      chaining;
      n_accs;
      fuse_mem;
      stop_at_translated;
      max_superblock;
      hot_threshold;
      ildp;
      scale;
    }

(* Closure-free key for deduplication (Workloads.t holds a closure, so
   structural comparison of reqs themselves is off the table). *)
type req_key =
  | K_orig of (string * bool * int)
  | K_straight of (string * Core.Config.chaining * int)
  | K_acc of acc_key

let key_of_req = function
  | R_orig { w; use_ras; scale } -> K_orig (w.Workloads.name, use_ras, scale)
  | R_straight { w; chaining; scale } ->
    K_straight (w.Workloads.name, chaining, scale)
  | R_acc
      {
        w;
        isa;
        chaining;
        n_accs;
        fuse_mem;
        stop_at_translated;
        max_superblock;
        hot_threshold;
        ildp;
        scale;
      } ->
    K_acc
      (acc_key_of ~isa ~chaining ~n_accs ~fuse_mem ~stop_at_translated
         ~max_superblock ~hot_threshold ~ildp ~scale w)

let run_req = function
  | R_orig { w; use_ras; scale } -> ignore (original ~use_ras ~scale w)
  | R_straight { w; chaining; scale } -> ignore (straight ~chaining ~scale w)
  | R_acc
      {
        w;
        isa;
        chaining;
        n_accs;
        fuse_mem;
        stop_at_translated;
        max_superblock;
        hot_threshold;
        ildp;
        scale;
      } ->
    ignore
      (acc ~isa ~chaining ~n_accs ~fuse_mem ~stop_at_translated ~max_superblock
         ~hot_threshold ?ildp ~scale w)

let dedup reqs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let k = key_of_req r in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    reqs

(* Warm every cache entry a plan needs, in parallel over [pool]. Awaits
   all jobs; the first failure (in submission order) is re-raised after
   every job has settled, so no worker is left running a stale job. *)
let prewarm ~pool reqs =
  let reqs = dedup reqs in
  let futs = List.map (fun r -> Pool.submit pool (fun () -> run_req r)) reqs in
  let first_error =
    List.fold_left
      (fun err fut ->
        match Pool.await fut with
        | () -> err
        | exception e -> (
          let bt = Printexc.get_raw_backtrace () in
          match err with None -> Some (e, bt) | Some _ -> err))
      None futs
  in
  match first_error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* A VM run's outcome as the bench tables print it. *)
let outcome_string = function
  | Core.Vm.Exit c -> Printf.sprintf "exit:%d" c
  | Core.Vm.Fault tr -> Format.asprintf "trap:%a" Alpha.Interp.pp_trap tr
  | Core.Vm.Out_of_fuel -> "fuel"

(* geometric mean, the usual summary for IPC-like ratios *)
let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun a x -> a +. log (max 1e-9 x)) 0.0 xs
         /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
