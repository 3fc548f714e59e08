(** Minimal JSON tree, parser and printer.

    The telemetry export writes JSON and the ledger benchmark reads and
    writes it; the environment deliberately has no third-party JSON
    dependency, so this is the one shared implementation. It covers the
    full JSON grammar except that numbers without a fraction or exponent
    are parsed as OCaml [int]s (every schema we read fits). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse_string : string -> (t, string) result
(** Parse a complete JSON document; the error string carries a byte
    offset. Trailing whitespace is allowed, trailing garbage is not. *)

val parse_file : string -> (t, string) result

val to_buffer : Buffer.t -> t -> unit
(** Pretty-print with two-space indentation and a trailing newline, the
    layout of the committed baseline files. *)

val to_string : t -> string
val write_file : string -> t -> unit

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts [Int] too (JSON does not distinguish). *)

val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option
