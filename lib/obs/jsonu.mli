(** Minimal JSON emission helpers shared by the obs exporters.

    Only what the deterministic exporters need: string escaping and a
    canonical number form, written straight into the caller's
    [Buffer].  Not a JSON library — no parsing.

    The [add_*] writers are the definition; {!str} and {!float_str}
    are thin wrappers over them.  Bulk exporters call the writers so
    that rendering an event costs no intermediate string: {!add_int}
    and {!add_str} allocate nothing beyond the buffer's own growth,
    {!add_float} only the digits of a non-integer value. *)

external format_float : string -> float -> string = "caml_format_float"
(** The C-level formatter [Printf] calls for [%f], [%e] and [%g]:
    [format_float "%.3f" v] equals [Printf.sprintf "%.3f" v]. *)

val add_int : Buffer.t -> int -> unit
(** Decimal digits, as [%d]. *)

val add_str : Buffer.t -> string -> unit
(** A quoted JSON string: a backslash escape for the double quote, the
    backslash, newline, carriage return and tab, and [\u00XX] for the
    other control characters.  A string that needs no escape is
    appended in one call. *)

val add_float : Buffer.t -> float -> unit
(** Canonical decimal form: integers below [1e15] in magnitude print
    without a fractional part, everything else as [%.6f], and [-0.]
    canonicalizes to [0] — the byte-determinism contract of every obs
    export leans on there being exactly one spelling per value.

    @raise Invalid_argument on NaN or infinities.  A non-finite value
    reaching an exporter is an instrumentation bug (histograms drop
    them at observation time); per the registry's philosophy it fails
    loudly at the boundary instead of smuggling ["nan"] into a JSON
    document. *)

val str : string -> string
(** {!add_str} into a fresh string. *)

val float_str : float -> string
(** {!add_float} into a fresh string. *)
