//! The observer a [`crate::Hierarchy`] holds, behind its `ENABLED` gate.

use hpfq_obs::Observer;

/// An observer that receives events only through [`Gated::emit`], which
/// runs nothing unless `O::ENABLED`. The field is private to this module,
/// so nothing else lends `&mut O`: a hook called outside the gate does not
/// compile, and a disabled observer costs its caller nothing — not even
/// building the event.
pub(crate) struct Gated<O>(O);

impl<O: Observer> Gated<O> {
    pub(crate) fn new(obs: O) -> Gated<O> {
        Gated(obs)
    }

    /// The observer, to read (every hook takes `&mut self`).
    pub(crate) fn get(&self) -> &O {
        &self.0
    }

    pub(crate) fn into_inner(self) -> O {
        self.0
    }

    /// Runs `hook` on the observer if it is enabled.
    #[inline(always)]
    pub(crate) fn emit(&mut self, hook: impl FnOnce(&mut O)) {
        if O::ENABLED {
            hook(&mut self.0);
        }
    }
}
