(** The fourteen workloads: twelve SPEC CPU2000 INT analogues and two
    quantized NN inference kernels.

    Each is MiniC source parameterised by [scale]; scale 1 sizes a run at a
    few hundred thousand dynamic V-ISA instructions — small enough that the
    full evaluation sweep takes seconds, large enough that every hot region
    is translated and re-executed many times. See each [wl_*.ml] for the
    control-flow/ILP signature its namesake motivates. *)

type t = {
  name : string;
      (** SPEC CPU2000 INT benchmark it mimics, e.g. "gzip", or an
          [nn_*] kernel name *)
  description : string;
  source : scale:int -> string;  (** MiniC source at the given scale *)
}

val all : t list
(** The twelve analogues, in the customary SPEC INT order, then
    [nn_mlp] and [nn_tiled]. *)

val find : string -> t option

val program : ?scale:int -> t -> Alpha.Program.t
(** Compile (and memoise) the workload. *)

val reference : ?scale:int -> ?fuel:int -> t -> int * string * int
(** Run under the plain interpreter: (exit code, PAL output, dynamic V-ISA
    instruction count). Raises [Failure] if the workload faults. *)
