"""The duals that `VectorialFunction._read_duals` hands over, collected."""


def read_duals(F):
    """F's profile, computed by `F._read_duals`, and the packed dual it
    handed over for each lambda; a lambda handed over twice fails."""
    duals = {}

    def read(lambdas, bits):
        for lam, row in zip(lambdas, bits):
            assert lam not in duals
            duals[lam] = row

    F._read_duals(read)
    return F.profile(), duals
