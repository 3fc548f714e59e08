(** Trace-driven ILDP distributed-microarchitecture timing model (Table 1,
    right column, and Section 1.1): 4-wide front end; instructions steered
    by accumulator number to one of 4/6/8 processing elements (a
    strand-starting instruction prefers the PE that produced its GPR input
    when communication latency is non-zero, else the least-loaded PE); each
    PE issues at most one instruction per cycle in order from its FIFO;
    accumulator values are PE-local while GPR values produced on another PE
    pay the global communication latency; replicated per-PE L1 D-cache;
    128-entry ROB committing 4 per cycle in order.

    Modified-ISA architected-file updates ([lazy_dst2] on events) drain off
    the critical path: a consumer reading one pays the communication
    latency on top of completion. *)

type params = {
  n_pe : int;
  comm : int;  (** inter-PE global communication latency, cycles *)
  fifo_depth : int;
  width : int;
  rob : int;
  depth : int;
  redirect : int;
  mul_lat : int;
  max_blocks : int;
  icache_size : int;
  icache_line : int;
  mem : Machine.Memhier.cfg;  (** per-PE replicated L1 + shared L2 *)
}

val default_params : params
(** 8 PEs, 0-cycle communication, 32KB L1 (the Fig. 8 configuration). *)

type t = {
  p : params;
  pred : Pred.t;
  icache : Machine.Cache.t;
  dmem : Machine.Memhier.t;
  reg_ready : int array;
  reg_pe : int array;  (** PE that produced each register token *)
  reg_lazy : bool array;  (** value drains lazily (architected update) *)
  pe_last_issue : int array;
  pe_fifo : int array array;
  pe_count : int array;
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
  mutable comm_stalls : int;  (** instructions delayed by remote operands *)
  mutable comm_cycles : int;  (** total cycles of such delay *)
}

val create : ?params:params -> ?use_ras:bool -> unit -> t
(** Raises [Invalid_argument] naming [n_pe] when [params.n_pe < 1]. *)

val feed : t -> Machine.Ev.t -> unit

val least_loaded : t -> int
(** The least-loaded PE, where steering sends accumulator-less
    instructions and new strands without a preferred producer PE: the
    lowest last-issue cycle, then the fewest steered instructions, then
    the lowest PE number. *)

val warm : t -> Machine.Ev.t -> unit
(** Functional warming: update the long-lived history state (caches,
    branch predictor, steering map) without simulating cycles. A sampling
    controller calls this for fast-window instructions so detail windows
    resume against warm state. *)

val boundary : t -> unit
val cycles : t -> int

val ipc : t -> float
(** Native I-ISA instructions per cycle (last bar of Fig. 8). *)

val v_ipc : t -> float
(** V-ISA instructions per cycle — the paper's headline metric. *)

val publish_obs : t -> unit
(** Fold the run's totals (cycles, committed instructions, predictor and
    communication outcomes) into the {!Obs} registry; no-op while
    telemetry is off. *)
