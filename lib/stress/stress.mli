(** Adversarial guest-program generators targeting the translator itself.

    Where {!Oracle.Gen} samples broadly over guest behaviours, this module
    aims three narrow arms at the DBT machinery's weak points:

    - {e flush-storm}: a phase-switching loop whose control flow migrates
      to a fresh trace every 16 iterations, growing the translation cache
      without bound. Under a finite [Config.tcache_max_slots] it forces
      repeated Dynamo-style whole-cache flushes mid-flight, which
      [Core.Vm]'s segment stats count as capacity flushes.
    - {e megamorphic}: indirect jumps whose target changes every single
      iteration, cycling through 16 cases. Software target prediction
      (translation-time compare-and-branch chaining) predicts one target,
      so nearly every transfer falls through the chain to the dispatch
      path — chain-class instruction share and dispatch misses balloon
      versus well-behaved code.
    - {e call-tower}: call chains 16–24 deep against the 8-entry dual
      RAS. Every iteration overflows the stack, so the majority of
      returns miss the RAS and must verify architecturally
      ([Machine.Dual_ras] counts the overflows).

    All arms build {!Oracle.Gen.block} values and programs are plain
    {!Oracle.Gen.program}s, so the oracle's renderer, assembler and
    delta-debugging shrinker work on them unchanged, and every stress
    program is a valid lockstep-verifiable guest (deterministic in the
    seed, terminating, checksum-printing). *)

type arm = Flush_storm | Megamorphic | Call_tower

val all_arms : arm list
val arm_name : arm -> string
(** ["flush-storm"], ["megamorphic"], ["call-tower"]. *)

val block : arm -> Machine.Rng.t -> int -> Oracle.Gen.block
(** One instance of the arm, labels made unique by the block id. *)

val single : ?iters:int -> arm -> seed:int -> Oracle.Gen.program
(** A one-block program exercising just [arm] (default 256 iterations —
    enough for the flush-storm phase selector to cycle through all eight
    phases repeatedly). Deterministic in [seed]. *)

val generate : seed:int -> Oracle.Gen.program
(** A mixed stress program: 1–3 blocks drawn uniformly from the three
    arms, 192–319 loop iterations. Deterministic in [seed] — the fuzzer's
    [--stress] mode swaps this in for {!Oracle.Gen.generate}. *)

val workload_names : string list
(** ["stress_flush"; "stress_mega"; "stress_tower"] — the fixed-seed
    named workloads [ildp_run] accepts alongside the MiniC suite. *)

val find_workload : string -> (scale:int -> Alpha.Program.t) option
(** Assembled program for a workload name; [scale] multiplies the
    iteration count (256 per unit). *)
