(** GPU-offloaded inference through the port API.

    §2: "computations are split between CPUs and GPUs, with GPUs
    typically doing the bulk of the inference work. CPUs … orchestrate
    the transfer of requests and responses between CPU DRAM and on-GPU
    DRAM."  This module is that orchestration under Guillotine rules:
    the weights are uploaded to GPU device memory {e through the model's
    port} (so the hypervisor audits every chunk), and each forward step
    is one mediated ARGMAX kernel round-trip — which means the
    hypervisor synchronously sees every row the forward pass visits and
    can steer or break it without any model cooperation, the §3.3
    introspection claim realised on the accelerator path.

    There is no direct-assignment shortcut to lose visibility through:
    SR-IOV does not exist here (§3.3). *)

type t

val create :
  Hypervisor.t ->
  port:Hypervisor.port_id ->
  unit ->
  t
(** The port must be a [Rings] port backed by a {!Guillotine_devices.Gpu}
    device. *)

val load_weights : t -> Inference.Toymodel.t -> (unit, string) result
(** Stream the weight matrix into GPU memory through the port, chunk by
    chunk.  Every chunk is an audited port request. *)

type generation = {
  tokens : int list;
  broken : bool;
  port_round_trips : int;  (** mediated kernel launches + uploads *)
  interventions : int;
}

val generate :
  t ->
  ?defence:Inference.defence ->
  prompt:int list ->
  max_tokens:int ->
  unit ->
  (generation, string) result
(** Device-side generation: per token, one ARGMAX kernel over the
    current row.  [defence] applies at the mediation point: the
    hypervisor refuses to launch kernels over harmful rows
    (circuit-breaking) or replaces harmful results (steering) — it needs
    no access to model internals beyond the port traffic it already
    sees.  Fails if weights are not loaded or the port stops serving
    (e.g. the isolation level severed it mid-generation). *)
