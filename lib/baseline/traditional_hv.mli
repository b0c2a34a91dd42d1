(** Cost and visibility model of a traditional hypervisor's device and
    memory virtualization paths, for the T3/F7 comparisons.

    Two guest→device paths exist on the baseline:
    - {b trap-and-emulate}: each device touch is a VM exit — world
      switch, instruction decode, emulation, resume.  Expensive but the
      hypervisor sees everything.
    - {b SR-IOV direct assignment}: the guest owns a device virtual
      function; no exits, near-native speed — and {e zero} hypervisor
      visibility, which is exactly why Guillotine forbids it (§3.3).

    Memory virtualization: EPT nested page walks (a 2-D walk touching up
    to 24 references) vs Guillotine's single-level walk (4 references),
    surfaced as per-walk cycle costs for F7.

    Cycle constants are stated per operation so the benches can print
    the arithmetic they use. *)

type mode = Trap_and_emulate | Sriov

val visibility : mode -> bool
(** Can the hypervisor observe guest/device traffic on this path? *)

type t

val create : mode:mode -> unit -> t

val vm_exit_cost : int          (* 1200 cycles: world switch + VMCS *)
val sriov_doorbell_cost : int   (* 50 cycles: posted write, no exit *)

val nested_walk_refs : int      (* 24: 2-D EPT page walk *)
val flat_walk_refs : int        (* 4: Guillotine single-level walk *)

val guest_device_request :
  t -> device:Guillotine_devices.Device.t -> now:int -> int64 array ->
  Guillotine_devices.Device.response * int
(** Perform one guest device operation; returns the device response and
    the {e virtualization} cycle cost on top of device latency (0 extra
    for SR-IOV beyond the doorbell). *)

val vm_exits : t -> int
val cycles : t -> int
(** Total virtualization cycles charged. *)

val observed_requests : t -> int
(** Requests the hypervisor could audit (= all of them under
    trap-and-emulate, none under SR-IOV). *)
