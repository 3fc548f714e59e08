(** Persistent translation-cache snapshots.

    A snapshot captures everything needed to warm-start the VM on the same
    program under the same configuration: the translated instruction
    slots, fragment metadata (including per-fragment execution counts,
    which double as the hotness profile for prewarming), PEI tables, the
    exit-reason table, per-slot retirement/class metadata, and the set of
    V-addresses translated so far.

    The container format is [magic | version | payload-length | CRC-32 |
    payload]. The payload opens with a {!fingerprint} covering backend,
    ISA, chaining, engine, every translation-relevant configuration knob,
    and an MD5 digest of the workload image — a snapshot taken under any
    other configuration or program is {e rejected} at load with a clean
    {!Error}, never silently mis-loaded.

    This library depends only on the instruction-set definitions
    ({!Alpha}, {!Accisa}); the conversion to and from live VM state lives
    in {!Core.Vm.save_snapshot} / [Core.Vm.create ~snapshot]. *)

exception Error of string
(** Raised on any malformed, corrupted, truncated, version-skewed or
    fingerprint-relevant decoding failure. *)

type fingerprint = {
  fp_backend : string;  (** ["acc"] or ["straight"] *)
  fp_isa : string;
  fp_chaining : string;
  fp_engine : string;
  fp_n_accs : int;
  fp_hot_threshold : int;
  fp_max_superblock : int;
  fp_stop_at_translated : bool;
  fp_fuse_mem : bool;
  fp_tcache_max_slots : int;
  fp_image_digest : string;  (** hex MD5 of the program image + entry *)
}

val fingerprint_mismatches : got:fingerprint -> want:fingerprint -> string list
(** Human-readable field-by-field differences, empty when compatible. *)

val fingerprint_bytes : fingerprint -> string
(** The fingerprint's binary encoding, exactly as it opens a snapshot
    payload: every field, in format order. Equal fingerprints give equal
    strings and different ones different strings, so a digest of it can
    key anything that must tell configurations apart. *)

type frag = {
  f_id : int;
  f_entry_slot : int;
  f_v_start : int;
  f_n_slots : int;
  f_v_insns : int;
  f_v_bytes : int;
  f_i_bytes : int;
  f_exec_count : int;  (** the hotness profile driving warm-start prewarm *)
  f_cat_count : int array;
}

type pei = { p_slot : int; p_v_pc : int; p_acc_map : (int * int) array }

type exit_reason = X_branch of int | X_pal of int | X_dispatch_miss

type 'insn cache = {
  slots : ('insn * bool) array;  (** instruction, starts-strand flag *)
  frags : frag array;
  peis : pei array;
  exits : exit_reason array;
  slot_alpha : int array;
  slot_class : int array;
  dispatch_slot : int;
  unique_vpcs : int array;  (** sorted, for deterministic encodings *)
}

type body =
  | B_acc of Accisa.Insn.t cache
  | B_straight of Alpha.Insn.t cache

type t = { fingerprint : fingerprint; body : body }

val version : int
(** Current container version (7); bumped whenever any encoding changes.
    A snapshot of any other version is rejected. *)

val to_string : t -> string
val of_string : string -> t
(** Raises {!Error} on bad magic, unsupported version, length or CRC
    mismatch, or any payload decoding failure. *)

val write_file : string -> t -> unit
val read_file : string -> t
(** Raises {!Error} (including for an unreadable file). *)
