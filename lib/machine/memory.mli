(** Sparse little-endian byte-addressable memory with explicit mapping.

    The simulated machine's physical memory, backed by 64 KiB chunks that
    must be explicitly {!map}ped before use. Accessing an unmapped chunk
    raises {!Fault}, which the Alpha interpreter and the DBT runtime turn
    into a precise memory trap.

    Mapping is copy-on-write. {!map} does not zero-fill: every freshly
    mapped chunk shares one process-wide, never-written zero chunk, reads
    as zero, and gets private backing on its first store. *)

exception Fault of int
(** [Fault addr] is raised on any access to an unmapped address. *)

type t
(** A memory: a flat page table of 64 KiB chunks, sized by the highest
    chunk mapped, plus a per-chunk dirty flag. *)

val chunk_bits : int
(** log2 of the chunk (page) size; chunk index of address [a] is
    [a lsr chunk_bits]. *)

val chunk_size : int

val create : unit -> t

val set_dirty_tracking : t -> bool -> unit
(** Enable or disable write-set tracking. Off by default: the hot
    simulation path then pays only a branch per store. The differential
    oracle enables it so per-boundary memory comparison can be confined
    to pages actually written. *)

val dirty_chunks : t -> int list
(** Chunk indices written since tracking was enabled (or last
    {!clear_dirty}), sorted ascending. *)

val clear_dirty : t -> unit

val chunk_bytes : t -> int -> Bytes.t option
(** Backing bytes of a chunk by index, if mapped. Treat as read-only: a
    chunk never stored to returns the shared zero chunk, and writing into it
    corrupts every memory, of every VM, in the process. *)

val mapped_chunks : t -> int list
(** Indices of every mapped chunk, ascending. *)

val unmapped : Bytes.t
(** The page {!page} and {!wpage} return for an unmapped address: empty,
    and compared by physical equality. *)

val page : t -> int -> Bytes.t
(** [page m addr] is the backing of [addr]'s chunk, to read from at offset
    [addr land (chunk_size - 1)], or {!unmapped}. Allocates nothing; the
    translated-code engine calls it on every load. Treat as read-only, as
    {!chunk_bytes}. *)

val wpage : t -> int -> Bytes.t
(** [wpage m addr] is [addr]'s chunk made private and writable (a chunk
    still backed by the zero chunk gets its own zeroed copy first) and
    dirtied, or {!unmapped}. The engine's store path. *)

val copy : t -> t
(** Behaves as a deep copy (used by tests to snapshot a memory image): a
    later store to either memory is never seen by the other. Chunks still
    backed by the shared zero chunk are shared, not duplicated. *)

val map : t -> addr:int -> len:int -> unit
(** Map every chunk overlapping [addr, addr+len). No bytes are allocated
    or filled: freshly mapped chunks read as zero and get their backing on
    the first store into them. Remapping is a no-op. *)

val is_mapped : t -> int -> bool

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit
(** Little-endian accessors of each width. Multi-byte accesses may straddle
    chunk boundaries. All raise {!Fault} on unmapped addresses, an address
    above the highest mapped chunk included. *)

val fill_zero : t -> addr:int -> len:int -> unit
(** Zero a mapped range (used when the VM flushes its dispatch table).
    Chunks wholly inside the range drop their backing and share the zero
    chunk again; only the unaligned head and tail bytes are cleared in
    place. Dirties every chunk it touches; raises {!Fault} on an unmapped
    one. *)

val blit_string : t -> addr:int -> string -> unit
(** Bulk write, used by the program loader: one blit per chunk the string
    overlaps. Dirties and faults exactly as a loop of {!set_u8} would. *)

val checksum : t -> addr:int -> len:int -> int64
(** FNV-1a hash over a range (unmapped bytes read as zero); used by tests
    to compare final memory images between execution modes. *)
