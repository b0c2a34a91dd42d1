(** Model-core MMU with Guillotine's executable-region lock.

    The page table maps virtual pages to physical frames with RWX
    permissions.  Following §3.2 (footnote 1), a hypervisor core may
    {e lock} the MMU: the set of executable pages is frozen as a
    base+bound-style region list, after which

    - no PTE may gain the X permission,
    - no locked executable page (or its frame) may be made writable,
    - locked executable pages cannot be remapped or unmapped, and
    - frames backing locked pages cannot be aliased through new writable
      mappings (the classic double-map bypass).

    This is what stops a model from injecting code at runtime for
    recursive self-improvement.  Hypervisor cores lock their own MMUs the
    same way right after loading the hypervisor image.

    There is deliberately no EPT / nested translation: model cores have
    no physical path to hypervisor DRAM, so one level of translation is
    all Guillotine needs (§3.2, "simplifies some aspects of processor
    design"). *)

type perm = { r : bool; w : bool; x : bool }

val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm

type fault =
  | Unmapped of int            (* no PTE for the virtual address *)
  | Perm_denied of int         (* PTE exists, access kind not allowed *)
  | Lock_violation of string   (* attempted PTE change forbidden by the lock *)

val pp_fault : Format.formatter -> fault -> unit

type pte = { frame : int; perm : perm }

type t = {
  page_size : int;
  page_shift : int;
  page_mask : int;
  table : (int, pte) Hashtbl.t;
  mutable lock : bool;
  locked_vpages : (int, unit) Hashtbl.t;
  locked_frames : (int, unit) Hashtbl.t;
  mutable gen : int;
  memo_vpage : int array;
  memo_frame : int array;
  memo_perm : int array;
  memo_gen : int array;
}
(** Concrete only so the core's per-instruction paths can read [gen]
    without a cross-module call: every {!map}, {!unmap}, {!protect} and
    {!lock_executable} bumps it, and while it is unchanged every
    {!translate_raw} answer is unchanged too.  All mutation must
    go through the functions below — the lock rules and the
    generation/memo discipline live there. *)

val create : ?page_size:int -> unit -> t
(** [page_size] in words, default 256, must be a power of two. *)

val page_size : t -> int

val page_shift : t -> int
(** [log2 (page_size t)] — lets per-instruction callers compute page
    numbers with a shift instead of a division. *)

val map : t -> vpage:int -> frame:int -> perm -> (unit, fault) result
(** Install or replace a PTE.  Subject to lock rules. *)

val unmap : t -> vpage:int -> (unit, fault) result

val protect : t -> vpage:int -> perm -> (unit, fault) result
(** Change permissions of an existing PTE.  Subject to lock rules. *)

val translate : t -> addr:int -> access:[ `R | `W | `X ] -> (int, fault) result
(** Virtual word address to physical word address. *)

val translate_raw : t -> addr:int -> access:[ `R | `W | `X ] -> int
(** Allocation-free {!translate} for the interpreter's per-instruction
    path: the physical word address, or a negative value on any fault
    (the fault detail is recoverable by calling {!translate} — the
    interpreter only needs "page fault at this vaddr").  Served from a
    small direct-mapped PTE memo validated against an internal
    generation counter that every {!map}/{!unmap}/{!protect}/
    {!lock_executable} bumps, so the decision is always identical to
    {!translate}'s. *)

val lookup : t -> vpage:int -> (int * perm) option

val lock_executable : t -> unit
(** Freeze the executable set.  Idempotent.  Also strips W from any
    currently-W+X page, enforcing W^X from that point on. *)

val locked : t -> bool

val executable_pages : t -> int list
(** Sorted virtual page numbers with X permission (the locked region
    set once locked). *)

val mapped_pages : t -> (int * int * perm) list
(** [(vpage, frame, perm)] list, sorted by vpage; used by attestation
    measurement and hypervisor inspection. *)
