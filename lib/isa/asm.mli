(** Two-pass assembler for GRISC.

    Guest programs — benign workloads and the adversarial suite — are
    written in this assembly and loaded into simulated model DRAM.

    Syntax, one statement per line:
    {v
      ; comment                      — also "#" comments
      label:                         — defines @label at the current address
        movi r1, 42                  — decimal, 0x… hex, or negative immediates
        movi r2, @table              — @label substitutes its absolute address
        beq  r1, r0, @done
        .word 123                    — raw 64-bit data word
        .word @label                 — address constant
        .zero 16                     — sixteen zero words
    v}

    Branch and jump targets are absolute word addresses.  The [origin]
    argument fixes the address of the first assembled word, so labels
    resolve to machine addresses. *)

type program = {
  words : int64 array;          (* the image, to be copied to DRAM *)
  symbols : (string * int) list; (* label -> absolute address *)
  origin : int;
}

type error_kind =
  | Syntax  (** malformed statement, bad operand, width violation *)
  | Unknown_label of string  (** [@name] never defined *)
  | Duplicate_label of string  (** [name:] defined twice *)

type error = { line : int; kind : error_kind; message : string }
(** [message] is human-readable and already names the offending label
    for the label kinds; [kind] carries it structurally. *)

exception Error of error

val assemble : ?origin:int -> string -> (program, error) result

val assemble_exn : ?origin:int -> string -> program
(** Raises {!Error}. *)

val instrs : Isa.instr list -> program
(** Wrap an already-constructed instruction list as a program at origin
    0 (no labels). *)

val disassemble : int64 array -> string
(** Best-effort listing; undecodable words render as [.word 0x…]. *)

val symbol : program -> string -> int
(** Raises [Not_found]. *)
